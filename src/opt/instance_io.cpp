#include "curb/opt/instance_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "curb/json/json.hpp"

namespace curb::opt {

namespace {

using json::Value;

/// Shortest round-trip decimal form; JSON has no infinity, so callers must
/// encode kNoLimit as null before reaching this.
void append_number(std::string& out, double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) throw std::runtime_error{"instance_to_json: number format"};
  out.append(buf, end);
}

void append_vector(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    append_number(out, v[i]);
  }
  out += ']';
}

void append_matrix(std::string& out, const char* indent,
                   const std::vector<std::vector<double>>& m) {
  out += '[';
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += indent;
    append_vector(out, m[i]);
  }
  if (!m.empty()) {
    out += '\n';
    out += indent + 2;  // close two spaces shallower than the rows
  }
  out += ']';
}

[[nodiscard]] const Value& member(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error{"instance_from_json: missing key '" + std::string{key} + "'"};
  }
  return *v;
}

[[nodiscard]] double as_number(const Value& v, const char* what) {
  if (v.type != Value::Type::kNumber) {
    throw std::runtime_error{"instance_from_json: '" + std::string{what} +
                             "' is not a number"};
  }
  return v.number;
}

[[nodiscard]] std::vector<double> as_vector(const Value& v, const char* what) {
  if (v.type != Value::Type::kArray) {
    throw std::runtime_error{"instance_from_json: '" + std::string{what} +
                             "' is not an array"};
  }
  std::vector<double> out;
  out.reserve(v.array.size());
  for (const Value& e : v.array) out.push_back(as_number(e, what));
  return out;
}

[[nodiscard]] std::vector<std::vector<double>> as_matrix(const Value& v,
                                                         const char* what) {
  if (v.type != Value::Type::kArray) {
    throw std::runtime_error{"instance_from_json: '" + std::string{what} +
                             "' is not an array"};
  }
  std::vector<std::vector<double>> out;
  out.reserve(v.array.size());
  for (const Value& row : v.array) out.push_back(as_vector(row, what));
  return out;
}

/// null -> kNoLimit, number -> itself.
[[nodiscard]] double as_limit(const Value& v, const char* what) {
  if (v.type == Value::Type::kNull) return CapInstance::kNoLimit;
  return as_number(v, what);
}

}  // namespace

std::string instance_to_json(const StoredInstance& stored) {
  const CapInstance& inst = stored.instance;
  std::string out;
  out += "{\n";
  out += "  \"name\": \"" + json::escape(stored.name) + "\",\n";
  out += "  \"num_switches\": " + std::to_string(inst.num_switches) + ",\n";
  out += "  \"num_controllers\": " + std::to_string(inst.num_controllers) + ",\n";
  out += "  \"group_size\": [";
  for (std::size_t i = 0; i < inst.group_size.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(inst.group_size[i]);
  }
  out += "],\n";
  out += "  \"switch_load\": ";
  append_vector(out, inst.switch_load);
  out += ",\n  \"controller_capacity\": ";
  append_vector(out, inst.controller_capacity);
  out += ",\n  \"max_cs_delay\": ";
  if (inst.max_cs_delay == CapInstance::kNoLimit) {
    out += "null";
  } else {
    append_number(out, inst.max_cs_delay);
  }
  out += ",\n  \"max_cc_delay\": ";
  if (inst.max_cc_delay == CapInstance::kNoLimit) {
    out += "null";
  } else {
    append_number(out, inst.max_cc_delay);
  }
  out += ",\n  \"cs_delay\": ";
  append_matrix(out, "    ", inst.cs_delay);
  out += ",\n  \"cc_delay\": ";
  append_matrix(out, "    ", inst.cc_delay);
  out += ",\n  \"byzantine\": [";
  for (std::size_t j = 0; j < inst.byzantine.size(); ++j) {
    if (j != 0) out += ", ";
    out += inst.byzantine[j] ? "true" : "false";
  }
  out += "],\n  \"fixed_leader\": [";
  for (std::size_t i = 0; i < inst.fixed_leader.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(inst.fixed_leader[i] ? *inst.fixed_leader[i] : -1);
  }
  out += "]";
  if (stored.tcr_optimum) {
    out += ",\n  \"tcr_optimum\": ";
    append_number(out, *stored.tcr_optimum);
  }
  if (stored.feasible) {
    out += ",\n  \"feasible\": ";
    out += *stored.feasible ? "true" : "false";
  }
  out += "\n}\n";
  return out;
}

StoredInstance instance_from_json(const std::string& text) {
  const Value root = json::parse(text);
  if (root.type != Value::Type::kObject) {
    throw std::runtime_error{"instance_from_json: document is not an object"};
  }
  StoredInstance stored;
  if (const Value* name = root.find("name");
      name != nullptr && name->type == Value::Type::kString) {
    stored.name = name->str;
  }
  CapInstance& inst = stored.instance;
  inst.num_switches =
      static_cast<std::size_t>(as_number(member(root, "num_switches"), "num_switches"));
  inst.num_controllers = static_cast<std::size_t>(
      as_number(member(root, "num_controllers"), "num_controllers"));
  inst.group_size.clear();
  for (const double g : as_vector(member(root, "group_size"), "group_size")) {
    inst.group_size.push_back(static_cast<int>(g));
  }
  inst.switch_load = as_vector(member(root, "switch_load"), "switch_load");
  inst.controller_capacity =
      as_vector(member(root, "controller_capacity"), "controller_capacity");
  inst.max_cs_delay = as_limit(member(root, "max_cs_delay"), "max_cs_delay");
  inst.max_cc_delay = as_limit(member(root, "max_cc_delay"), "max_cc_delay");
  inst.cs_delay = as_matrix(member(root, "cs_delay"), "cs_delay");
  inst.cc_delay = as_matrix(member(root, "cc_delay"), "cc_delay");
  inst.byzantine.clear();
  const Value& byz = member(root, "byzantine");
  if (byz.type != Value::Type::kArray) {
    throw std::runtime_error{"instance_from_json: 'byzantine' is not an array"};
  }
  for (const Value& b : byz.array) {
    if (b.type != Value::Type::kBool) {
      throw std::runtime_error{"instance_from_json: 'byzantine' element is not a bool"};
    }
    inst.byzantine.push_back(b.boolean);
  }
  inst.fixed_leader.clear();
  for (const double leader :
       as_vector(member(root, "fixed_leader"), "fixed_leader")) {
    const int l = static_cast<int>(leader);
    inst.fixed_leader.push_back(l < 0 ? std::nullopt : std::optional<int>{l});
  }
  if (const Value* opt = root.find("tcr_optimum"); opt != nullptr) {
    stored.tcr_optimum = as_number(*opt, "tcr_optimum");
  }
  if (const Value* feas = root.find("feasible");
      feas != nullptr && feas->type == Value::Type::kBool) {
    stored.feasible = feas->boolean;
  }
  inst.validate();
  return stored;
}

StoredInstance load_instance(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_instance: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return instance_from_json(buf.str());
}

bool save_instance(const StoredInstance& stored, const std::string& path) {
  std::ofstream out{path};
  if (!out) return false;
  out << instance_to_json(stored);
  return static_cast<bool>(out);
}

}  // namespace curb::opt
