#include "core.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#ifdef __linux__
#include <sched.h>
#endif

namespace hostbench
{

using gvc::Json;

#ifdef __linux__
namespace
{

void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

} // namespace

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
}

CpuRotation::~CpuRotation()
{
    if (step_ > 0)
        pinTo(cpus_);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    pinTo({cpus_[step_++ % cpus_.size()]});
}
#else
CpuRotation::CpuRotation() {}
CpuRotation::~CpuRotation() {}
void CpuRotation::next() {}
#endif

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
medianOfMedians(const std::vector<std::vector<double>> &per_sim)
{
    std::vector<double> each;
    for (const auto &v : per_sim)
        each.push_back(median(v));
    return median(std::move(each));
}

std::optional<double>
p90WithTail(std::vector<double> v, std::size_t min_beyond)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Integer ceil(0.9 n) avoids a floating-point rank one off.
    const std::size_t rank = (9 * n + 9) / 10;
    if (n - rank < min_beyond)
        return std::nullopt;
    return v[rank - 1];
}

// --- SimCounters ----------------------------------------------------

namespace
{

Json
kernelStatsToJson(const gvc::KernelStats &k)
{
    Json j = Json::object();
#define HB_SET(name) j.set(#name, k.name);
    GVC_KERNELSTAT_FIELDS(HB_SET)
#undef HB_SET
    return j;
}

bool
readU64(const Json &obj, const std::string &key, std::uint64_t &out,
        std::string *err)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber()) {
        if (err)
            *err = "missing or non-numeric field '" + key + "'";
        return false;
    }
    out = v->asU64();
    return true;
}

bool
kernelStatsFromJson(const Json &j, gvc::KernelStats &k, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "kernel stats must be an object";
        return false;
    }
#define HB_GET(name)                                                      \
    if (!readU64(j, #name, k.name, err))                                  \
        return false;
    GVC_KERNELSTAT_FIELDS(HB_GET)
#undef HB_GET
    return true;
}

const Json *
member(const Json &j, const std::string &key, Json::Type type,
       std::string *err)
{
    const Json *v = j.isObject() ? j.find(key) : nullptr;
    if (!v || v->type() != type) {
        if (err)
            *err = "missing or mistyped field '" + key + "'";
        return nullptr;
    }
    return v;
}

} // namespace

SimCounters
SimCounters::fromResult(const gvc::RunResult &r)
{
    SimCounters c;
    c.totals = gvc::BenchCounters::fromResult(r);
    c.kernels = r.kernels;
    c.tenants = r.tenants;
    return c;
}

Json
SimCounters::toJson() const
{
    Json j = Json::object();
    Json t = Json::object();
#define HB_SET(name) t.set(#name, totals.name);
    GVC_BENCHCOUNTER_FIELDS(HB_SET)
#undef HB_SET
    j.set("totals", std::move(t));
    Json ks = Json::array();
    for (const auto &k : kernels)
        ks.push(kernelStatsToJson(k));
    j.set("kernels", std::move(ks));
    Json ts = Json::array();
    for (const auto &t : tenants) {
        Json o = Json::object();
        o.set("workload", t.workload);
        o.set("launches", t.launches);
        o.set("stats", kernelStatsToJson(t.stats));
        ts.push(std::move(o));
    }
    j.set("tenants", std::move(ts));
    return j;
}

bool
SimCounters::fromJson(const Json &j, SimCounters &out, std::string *err)
{
    out = SimCounters{};
    const Json *t = member(j, "totals", Json::Type::kObject, err);
    const Json *ks = member(j, "kernels", Json::Type::kArray, err);
    const Json *ts = member(j, "tenants", Json::Type::kArray, err);
    if (!t || !ks || !ts)
        return false;
#define HB_GET(name)                                                      \
    if (!readU64(*t, #name, out.totals.name, err))                        \
        return false;
    GVC_BENCHCOUNTER_FIELDS(HB_GET)
#undef HB_GET
    for (std::size_t i = 0; i < ks->size(); ++i) {
        gvc::KernelStats k;
        if (!kernelStatsFromJson(ks->at(i), k, err))
            return false;
        out.kernels.push_back(k);
    }
    for (std::size_t i = 0; i < ts->size(); ++i) {
        const Json &o = ts->at(i);
        gvc::TenantStats s;
        const Json *w = member(o, "workload", Json::Type::kString, err);
        const Json *st = member(o, "stats", Json::Type::kObject, err);
        if (!w || !st || !readU64(o, "launches", s.launches, err) ||
            !kernelStatsFromJson(*st, s.stats, err))
            return false;
        s.workload = w->asString();
        out.tenants.push_back(std::move(s));
    }
    return true;
}

bool
SimCounters::operator==(const SimCounters &o) const
{
    return totals == o.totals && kernels == o.kernels &&
           tenants == o.tenants;
}

// --- Reference -------------------------------------------------------

const CounterTable *
Reference::find(const std::string &workload, std::uint64_t seed) const
{
    const auto w = tables.find(workload);
    if (w == tables.end())
        return nullptr;
    const auto s = w->second.find(seed);
    return s == w->second.end() ? nullptr : &s->second;
}

Json
Reference::toJson() const
{
    Json j = Json::object();
    j.set("hostbench_reference_version", 1);
    Json sc = Json::object();
    for (const auto &[w, s] : scales)
        sc.set(w, s);
    j.set("scales", std::move(sc));
    Json ws = Json::object();
    for (const auto &[w, seeds] : tables) {
        Json so = Json::object();
        for (const auto &[seed, table] : seeds) {
            Json to = Json::object();
            for (const auto &[id, c] : table)
                to.set(id, c.toJson());
            so.set(std::to_string(seed), std::move(to));
        }
        ws.set(w, std::move(so));
    }
    j.set("workloads", std::move(ws));
    return j;
}

bool
Reference::fromJson(const Json &j, Reference &out, std::string *err)
{
    out = Reference{};
    const Json *ver = j.isObject() ? j.find("hostbench_reference_version")
                                   : nullptr;
    if (!ver || !ver->isNumber() || ver->asU64() != 1) {
        if (err)
            *err = "not a version-1 hostbench reference";
        return false;
    }
    const Json *sc = member(j, "scales", Json::Type::kObject, err);
    const Json *ws = member(j, "workloads", Json::Type::kObject, err);
    if (!sc || !ws)
        return false;
    for (const auto &[w, s] : sc->members()) {
        if (!s.isNumber()) {
            if (err)
                *err = "scale of '" + w + "' is not a number";
            return false;
        }
        out.scales[w] = s.asNumber();
    }
    for (const auto &[w, seeds] : ws->members()) {
        if (!seeds.isObject()) {
            if (err)
                *err = "workload '" + w + "' is not an object";
            return false;
        }
        for (const auto &[seed_text, table] : seeds.members()) {
            char *end = nullptr;
            const std::uint64_t seed =
                std::strtoull(seed_text.c_str(), &end, 10);
            if (seed_text.empty() || *end != '\0' || !table.isObject()) {
                if (err)
                    *err = "bad seed entry '" + seed_text + "' in '" + w +
                           "'";
                return false;
            }
            CounterTable &t = out.tables[w][seed];
            for (const auto &[id, c] : table.members()) {
                if (!SimCounters::fromJson(c, t[id], err)) {
                    if (err)
                        *err = w + "/" + seed_text + "/" + id + ": " + *err;
                    return false;
                }
            }
        }
    }
    return true;
}

bool
Reference::load(const std::string &path, Reference &out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open reference '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string perr;
    const Json j = Json::parse(ss.str(), &perr);
    if (!perr.empty()) {
        if (err)
            *err = path + ": " + perr;
        return false;
    }
    return fromJson(j, out, err);
}

bool
Reference::save(const std::string &path, std::string *err) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << toJson().dump(1) << "\n";
    out.close();
    if (!out) {
        if (err)
            *err = "cannot write reference '" + path + "'";
        return false;
    }
    return true;
}

// --- CounterGate ------------------------------------------------------

bool
CounterGate::check(const std::string &id, const SimCounters &c)
{
    ++attempted_;
    const SimCounters *expect = nullptr;
    if (reference_) {
        const auto it = reference_->find(id);
        if (it == reference_->end()) {
            ++failed_;
            failures_.push_back(id + ": no reference counters");
            return false;
        }
        expect = &it->second;
    } else {
        const auto [it, fresh] = seen_.emplace(id, c);
        if (fresh)
            return true;
        expect = &it->second;
    }
    if (*expect == c)
        return true;
    ++failed_;
    failures_.push_back(id + (reference_
                                  ? ": counters differ from the reference"
                                  : ": counters differ between repetitions"));
    return false;
}

bool
CounterGate::checkPair(const std::string &id, const SimCounters &a,
                       const SimCounters &b)
{
    ++attempted_;
    if (a == b)
        return true;
    ++failed_;
    failures_.push_back(id + ": replay differs from the live run");
    return false;
}

// --- Spans ------------------------------------------------------------

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || std::size_t(s.parent) >= spans.size())
            continue;
        const Span &p = spans[std::size_t(s.parent)];
        const double a = std::max(s.start, p.start);
        const double b = std::min(s.end, p.end);
        if (b > a)
            kids[std::size_t(s.parent)].emplace_back(a, b);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = 0.0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] = spans[i].duration() - covered;
    }
    return self;
}

int
Tracer::begin(std::string name, int parent, std::uint64_t sim)
{
    const double t = nowS();
    return add(std::move(name), t, t, parent, sim);
}

void
Tracer::end(int span)
{
    spans_[std::size_t(span)].end = nowS();
}

int
Tracer::add(std::string name, double start, double end, int parent,
            std::uint64_t sim)
{
    spans_.push_back(Span{std::move(name), start, end, parent, sim});
    return int(spans_.size() - 1);
}

Json
Tracer::toJson() const
{
    const std::vector<double> self = selfTimes(spans_);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    Json arr = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json o = Json::object();
        o.set("name", s.name);
        o.set("start_s", s.start - t0);
        o.set("end_s", s.end - t0);
        o.set("parent", s.parent);
        o.set("sim", s.sim);
        o.set("self_s", self[i]);
        arr.push(std::move(o));
    }
    return arr;
}

// --- Report -------------------------------------------------------------

void
Report::add(std::string name, double value, std::string unit,
            std::uint64_t samples)
{
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

namespace
{

Json
stringArray(const std::vector<std::string> &v)
{
    Json a = Json::array();
    for (const auto &s : v)
        a.push(s);
    return a;
}

bool
readStrings(const Json &j, const std::string &key,
            std::vector<std::string> &out, std::string *err)
{
    const Json *a = member(j, key, Json::Type::kArray, err);
    if (!a)
        return false;
    for (std::size_t i = 0; i < a->size(); ++i) {
        if (!a->at(i).isString()) {
            if (err)
                *err = "'" + key + "' holds a non-string";
            return false;
        }
        out.push_back(a->at(i).asString());
    }
    return true;
}

} // namespace

Json
Report::toJson() const
{
    Json j = Json::object();
    j.set("hostbench_report_version", 1);
    j.set("workload", workload);
    j.set("seed", seed);
    j.set("traced", traced);
    j.set("seconds", seconds);
    Json fp = Json::object();
    for (const auto &[k, v] : fingerprint)
        fp.set(k, v);
    j.set("fingerprint", std::move(fp));
    j.set("reference", reference);
    j.set("correct", correct());
    j.set("attempted", attempted);
    j.set("failed", failed);
    j.set("failed_frac", failedFrac());
    j.set("failures", stringArray(failures));
    Json ms = Json::array();
    for (const Metric &m : metrics) {
        Json o = Json::object();
        o.set("name", m.name);
        o.set("value", m.value);
        o.set("unit", m.unit);
        o.set("samples", m.samples);
        ms.push(std::move(o));
    }
    j.set("metrics", std::move(ms));
    j.set("notes", stringArray(notes));
    return j;
}

bool
Report::fromJson(const Json &j, Report &out, std::string *err)
{
    out = Report{};
    const Json *ver =
        j.isObject() ? j.find("hostbench_report_version") : nullptr;
    if (!ver || !ver->isNumber() || ver->asU64() != 1) {
        if (err)
            *err = "not a version-1 hostbench report";
        return false;
    }
    const Json *w = member(j, "workload", Json::Type::kString, err);
    const Json *tr = member(j, "traced", Json::Type::kBool, err);
    const Json *secs = member(j, "seconds", Json::Type::kNumber, err);
    const Json *fp = member(j, "fingerprint", Json::Type::kObject, err);
    const Json *ref = member(j, "reference", Json::Type::kString, err);
    const Json *ms = member(j, "metrics", Json::Type::kArray, err);
    if (!w || !tr || !secs || !fp || !ref || !ms ||
        !readU64(j, "seed", out.seed, err) ||
        !readU64(j, "attempted", out.attempted, err) ||
        !readU64(j, "failed", out.failed, err) ||
        !readStrings(j, "failures", out.failures, err) ||
        !readStrings(j, "notes", out.notes, err))
        return false;
    out.workload = w->asString();
    out.traced = tr->asBool();
    out.seconds = secs->asNumber();
    out.reference = ref->asString();
    for (const auto &[k, v] : fp->members()) {
        if (!v.isString()) {
            if (err)
                *err = "fingerprint '" + k + "' is not a string";
            return false;
        }
        out.fingerprint[k] = v.asString();
    }
    for (std::size_t i = 0; i < ms->size(); ++i) {
        const Json &o = ms->at(i);
        Metric m;
        const Json *n = member(o, "name", Json::Type::kString, err);
        const Json *v = member(o, "value", Json::Type::kNumber, err);
        const Json *u = member(o, "unit", Json::Type::kString, err);
        if (!n || !v || !u || !readU64(o, "samples", m.samples, err))
            return false;
        m.name = n->asString();
        m.value = v->asNumber();
        m.unit = u->asString();
        out.metrics.push_back(std::move(m));
    }
    return true;
}

} // namespace hostbench
