#include "jobspec.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <set>

#include "common/flatjson.hh"
#include "common/logging.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::serve
{

const char *
toString(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Error:
        return "error";
      case JobStatus::Rejected:
        return "rejected";
      case JobStatus::Shed:
        return "shed";
      case JobStatus::Expired:
        return "expired";
    }
    return "?";
}

namespace
{

/** JSON string escaper for the result writer. */
std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatG17(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

namespace
{

/** Local alias predating the public formatG17 export. */
std::string
formatDouble(double value)
{
    return formatG17(value);
}

} // namespace

std::optional<JobSpec>
parseJobLine(const std::string &line, size_t lineno, std::string &error)
{
    auto fail = [&](const std::string &why) {
        error = "line " + std::to_string(lineno) + ": " + why;
        return std::nullopt;
    };

    std::string parse_error;
    auto object = json::parseFlatObject(line, parse_error);
    if (!object)
        return fail(parse_error);

    JobSpec spec;
    bool idGiven = false;
    for (const auto &[key, value] : *object) {
        auto wantString = [&](std::string &dst) {
            if (value.kind != json::Value::Kind::String)
                return false;
            dst = value.text;
            return true;
        };
        auto wantBool = [&](bool &dst) {
            if (value.kind != json::Value::Kind::Boolean)
                return false;
            dst = value.boolean;
            return true;
        };
        bool ok = true;
        if (key == "id") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v)
                return fail("\"id\" wants a non-negative integer");
            spec.id = *v;
            idGiven = true;
        } else if (key == "app") {
            ok = wantString(spec.app);
        } else if (key == "model") {
            ok = wantString(spec.model);
        } else if (key == "device") {
            ok = wantString(spec.device);
        } else if (key == "devices") {
            ok = wantString(spec.devices);
        } else if (key == "backend") {
            std::string text;
            if (!wantString(text))
                return fail("\"backend\" wants a string");
            if (!ir::backendByName(text))
                return fail("\"backend\" wants a device backend "
                            "(ocl, amp, acc, hc, omp, cuda), got '" +
                            text + "'");
            spec.backend = text;
        } else if (key == "policy") {
            ok = wantString(spec.policy);
        } else if (key == "scale") {
            if (value.kind != json::Value::Kind::Number ||
                value.number <= 0.0)
                return fail("\"scale\" wants a positive number");
            if (value.number > core::maxScale)
                return fail(csprintf("\"scale\" wants at most %g, got %g",
                                     core::maxScale, value.number));
            spec.scale = value.number;
        } else if (key == "dp") {
            ok = wantBool(spec.doublePrecision);
        } else if (key == "functional") {
            ok = wantBool(spec.functional);
        } else if (key == "timing_cache") {
            ok = wantBool(spec.timingCache);
        } else if (key == "freq") {
            std::string text;
            if (!wantString(text))
                return fail("\"freq\" wants a \"core:mem\" string");
            const auto freq = json::parseCoreMem(text);
            if (!freq)
                return fail("\"freq\" wants positive core:mem MHz, "
                            "got '" + text + "'");
            spec.freq = {freq->first, freq->second};
        } else if (key == "faults") {
            std::string text;
            if (!wantString(text))
                return fail("\"faults\" wants a kind:rate spec string");
            auto cfg = fault::parseFaultSpec(text);
            if (!cfg)
                return fail("\"faults\" wants kind:rate pairs "
                            "(transfer|launch|stall, rate in [0,1]), "
                            "got '" + text + "'");
            spec.faultConfig.transferFailRate = cfg->transferFailRate;
            spec.faultConfig.launchFailRate = cfg->launchFailRate;
            spec.faultConfig.stallRate = cfg->stallRate;
            spec.faultsGiven = true;
        } else if (key == "fault_seed") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v)
                return fail("\"fault_seed\" wants a non-negative "
                            "integer");
            spec.faultConfig.seed = *v;
        } else if (key == "retry_max") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v || *v > 64)
                return fail("\"retry_max\" wants an integer in "
                            "[0, 64]");
            spec.faultConfig.retryMax = static_cast<u32>(*v);
        } else if (key == "fail_device") {
            std::string text;
            if (!wantString(text) || text.empty())
                return fail("\"fail_device\" wants a device alias");
            spec.faultConfig.failDevice = text;
            spec.faultsGiven = true;
        } else if (key == "deadline_ms") {
            if (value.kind != json::Value::Kind::Number ||
                value.number < 0.0)
                return fail("\"deadline_ms\" wants a non-negative "
                            "number");
            spec.deadlineMs = value.number;
            spec.deadlineGiven = true;
        } else if (key == "service_deadline_ms") {
            if (value.kind != json::Value::Kind::Number ||
                value.number < 0.0)
                return fail("\"service_deadline_ms\" wants a "
                            "non-negative number");
            spec.serviceDeadlineMs = value.number;
            spec.serviceDeadlineGiven = true;
        } else if (key == "tenant") {
            ok = wantString(spec.tenant);
        } else if (key == "priority") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseLong(value.text)
                         : std::nullopt;
            if (!v)
                return fail("\"priority\" wants an integer");
            spec.priority = static_cast<int>(*v);
        } else {
            return fail("unknown key \"" + key + "\"");
        }
        if (!ok)
            return fail("wrong value type for \"" + key + "\"");
    }
    if (!idGiven)
        spec.id = lineno;
    return spec;
}

std::optional<std::vector<JobSpec>>
parseJobs(std::istream &is, std::string &error)
{
    std::vector<JobSpec> jobs;
    std::set<u64> ids;
    std::string line;
    size_t lineno = 0;
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
        auto spec = parseJobLine(line, lineno, error);
        if (!spec)
            return std::nullopt;
        if (!ids.insert(spec->id).second) {
            error = "line " + std::to_string(lineno) +
                    ": duplicate job id " + std::to_string(spec->id);
            return std::nullopt;
        }
        jobs.push_back(std::move(*spec));
    }
    return jobs;
}

std::string
jobClassKey(const JobSpec &spec)
{
    std::string key = spec.app + "|";
    if (spec.coexec()) {
        key += "coexec:" + spec.policy;
        // Canonicalized so "ocl" and "opencl" share one cost class.
        if (auto backend = ir::backendByName(spec.backend))
            key.append(":").append(ir::toString(*backend));
    } else {
        key += spec.model;
    }
    key += spec.doublePrecision ? "|dp" : "|sp";
    key += "|scale=" + formatDouble(spec.scale);
    if (spec.freq.coreMhz > 0.0 || spec.freq.memMhz > 0.0)
        key += "|freq=" + formatDouble(spec.freq.coreMhz) + ":" +
               formatDouble(spec.freq.memMhz);
    if (spec.functional)
        key += "|fn";
    // The service deadline changes the simulated outcome (preemption
    // slices add checkpoint costs), so it is part of the class.
    if (spec.serviceDeadlineMs > 0.0)
        key += "|sdl=" + formatDouble(spec.serviceDeadlineMs);
    if (spec.faultsGiven) {
        char seed[32];
        std::snprintf(seed, sizeof(seed), "0x%llx",
                      static_cast<unsigned long long>(
                          spec.faultConfig.seed));
        key += "|faults=" + std::string(seed) + ":" +
               formatDouble(spec.faultConfig.transferFailRate) + ":" +
               formatDouble(spec.faultConfig.launchFailRate) + ":" +
               formatDouble(spec.faultConfig.stallRate) + ":" +
               std::to_string(spec.faultConfig.retryMax) + ":" +
               formatDouble(spec.faultConfig.backoffSeconds) + ":" +
               spec.faultConfig.failDevice + ":" +
               std::to_string(spec.faultConfig.failAfterChunks);
    }
    return key;
}

std::string
jobDeviceKey(const JobSpec &spec)
{
    return spec.coexec() ? spec.devices : spec.device;
}

void
writeResultLine(std::ostream &os, const JobResult &res)
{
    os << "{\"id\":" << res.id << ",\"status\":\""
       << toString(res.status) << "\"";
    if (!res.error.empty())
        os << ",\"error\":\"" << escapeJson(res.error) << "\"";
    os << ",\"app\":\"" << escapeJson(res.app) << "\"";
    if (!res.devices.empty()) {
        os << ",\"devices\":\"" << escapeJson(res.devices)
           << "\",\"policy\":\"" << escapeJson(res.policy) << "\"";
    } else {
        os << ",\"model\":\"" << escapeJson(res.model)
           << "\",\"device\":\"" << escapeJson(res.device) << "\"";
    }
    if (!res.tenant.empty())
        os << ",\"tenant\":\"" << escapeJson(res.tenant) << "\"";
    if (res.status == JobStatus::Ok) {
        os << ",\"seconds\":" << formatDouble(res.simSeconds)
           << ",\"kernel_seconds\":" << formatDouble(res.kernelSeconds)
           << ",\"transfer_seconds\":"
           << formatDouble(res.transferSeconds);
        if (res.functionalRun) {
            os << ",\"checksum\":" << formatDouble(res.checksum)
               << ",\"validated\":"
               << (res.validated ? "true" : "false");
        }
        os << ",\"energy_j\":" << formatDouble(res.energyJoules)
           << ",\"faults_injected\":" << res.faultsInjected
           << ",\"fault_schedule_hash\":\"0x" << std::hex
           << res.faultScheduleHash << std::dec << "\"";
    }
    // Preemption survival count is simulated-time-derived, hence
    // deterministic; emitted for preempted Ok *and* Expired jobs.
    if (res.preemptions > 0)
        os << ",\"preemptions\":" << res.preemptions;
    os << "}\n";
}

void
writeResultsJsonl(std::ostream &os, const std::vector<JobResult> &results)
{
    for (const auto &res : results)
        writeResultLine(os, res);
}

} // namespace hetsim::serve
