#include "topology.hh"

#include <cctype>
#include <fstream>
#include <istream>
#include <sstream>

#include "common/flatjson.hh"

namespace hetsim::fleet
{

std::vector<std::string>
Topology::deviceKinds() const
{
    std::vector<std::string> kinds;
    for (const NodeSpec &node : nodes) {
        bool seen = false;
        for (const std::string &kind : kinds) {
            if (kind == node.device) {
                seen = true;
                break;
            }
        }
        if (!seen)
            kinds.push_back(node.device);
    }
    return kinds;
}

Topology
Topology::scaled(u32 factor) const
{
    Topology out;
    out.net = net;
    out.nodes.reserve(nodes.size() * factor);
    for (u32 rep = 0; rep < factor; ++rep) {
        for (const NodeSpec &node : nodes) {
            NodeSpec copy = node;
            if (rep > 0)
                copy.name.append("+").append(std::to_string(rep));
            out.nodes.push_back(std::move(copy));
        }
    }
    return out;
}

namespace
{

/** Expand one node-group record into topo.nodes. */
bool
addNodeGroup(Topology &topo, const json::Object &object,
             std::string &why)
{
    std::string device, name;
    u64 count = 1;
    double perf = 1.0;
    for (const auto &[key, value] : object) {
        if (key == "device") {
            if (value.kind != json::Value::Kind::String) {
                why = "\"device\" wants a device alias string";
                return false;
            }
            device = value.text;
        } else if (key == "name") {
            if (value.kind != json::Value::Kind::String ||
                value.text.empty()) {
                why = "\"name\" wants a non-empty string";
                return false;
            }
            name = value.text;
        } else if (key == "count") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v || *v == 0) {
                why = "\"count\" wants a positive integer";
                return false;
            }
            count = *v;
        } else if (key == "perf") {
            if (value.kind != json::Value::Kind::Number ||
                value.number <= 0.0) {
                why = "\"perf\" wants a positive number";
                return false;
            }
            perf = value.number;
        } else {
            why = "unknown key \"" + key + "\"";
            return false;
        }
    }
    if (!sim::deviceByName(device)) {
        why = "unknown device '" + device +
              "' (want dgpu, apu, cpu, or hd7950)";
        return false;
    }
    if (name.empty())
        name = device;
    for (u64 i = 0; i < count; ++i) {
        NodeSpec node;
        node.name = name + "/" + std::to_string(i);
        node.device = device;
        node.perf = perf;
        topo.nodes.push_back(std::move(node));
    }
    return true;
}

/** Apply one fabric record to topo.net. */
bool
setFabric(Topology &topo, const json::Object &object, std::string &why)
{
    for (const auto &[key, value] : object) {
        if (value.kind != json::Value::Kind::Number) {
            why = "\"" + key + "\" wants a number";
            return false;
        }
        if (key == "net_gbs") {
            if (value.number <= 0.0) {
                why = "\"net_gbs\" wants positive GB/s";
                return false;
            }
            topo.net.rawGBs = value.number;
        } else if (key == "net_latency_us") {
            if (value.number < 0.0) {
                why = "\"net_latency_us\" wants non-negative "
                      "microseconds";
                return false;
            }
            topo.net.latencyUs = value.number;
        } else if (key == "net_efficiency") {
            if (value.number <= 0.0 || value.number > 1.0) {
                why = "\"net_efficiency\" wants a fraction in (0, 1]";
                return false;
            }
            topo.net.efficiency = value.number;
        } else {
            why = "unknown key \"" + key + "\"";
            return false;
        }
    }
    return true;
}

} // namespace

std::optional<Topology>
parseTopology(std::istream &is, std::string &error)
{
    Topology topo;
    bool fabricSeen = false;
    std::string line;
    size_t lineno = 0;
    auto fail = [&](const std::string &why) {
        error = "line " + std::to_string(lineno) + ": " + why;
        return std::nullopt;
    };
    while (std::getline(is, line)) {
        ++lineno;
        bool blank = true;
        for (char c : line) {
            if (!std::isspace(static_cast<unsigned char>(c))) {
                blank = false;
                break;
            }
        }
        if (blank)
            continue;
        std::string why;
        auto object = json::parseFlatObject(line, why);
        if (!object)
            return fail(why);
        if (object->count("device")) {
            if (!addNodeGroup(topo, *object, why))
                return fail(why);
        } else {
            if (fabricSeen)
                return fail("second fabric line (one per file)");
            if (!setFabric(topo, *object, why))
                return fail(why);
            fabricSeen = true;
        }
    }
    if (topo.nodes.empty()) {
        error = "topology has no nodes (want at least one "
                "{\"device\": ...} line)";
        return std::nullopt;
    }
    return topo;
}

std::optional<Topology>
loadTopology(const std::string &path, std::string &error)
{
    std::ifstream is(path);
    if (!is.is_open()) {
        error = "cannot open topology file '" + path + "'";
        return std::nullopt;
    }
    auto topo = parseTopology(is, error);
    if (!topo)
        error = path + ": " + error;
    return topo;
}

Topology
uniformTopology(u32 nodes, const std::string &device)
{
    Topology topo;
    topo.nodes.reserve(nodes);
    for (u32 i = 0; i < nodes; ++i) {
        NodeSpec node;
        node.name = device + "/" + std::to_string(i);
        node.device = device;
        topo.nodes.push_back(std::move(node));
    }
    return topo;
}

} // namespace hetsim::fleet
