/**
 * @file
 * carf-bench: host-time benchmark of the CARF simulator.
 *
 *   carf_bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--scale F] [--corrupt 1] [--work-dir DIR]
 *
 * A single-process, closed-loop batch benchmark with one client: it
 * submits the next job only when the previous call has returned. It
 * builds every trace a workload needs into a fresh TraceCache (set-up,
 * repeated over the timed window and reported as a median), then
 * repeats timed rounds over
 * the workload's job list for S seconds through the library's public
 * entry points (sim::simulate, sim::ExperimentRunner::run with a
 * sim::ResultStore). Every job is
 * checked; the last stdout line is the JSON result and the exit code
 * is non-zero when any check failed.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced rounds (the difference in kips is the tracing
 * overhead), times the benchmark's own calls into each layer (probes.cc)
 * and prints the per-layer metrics; spans are written at exit under
 * DIR/spans. --scale multiplies the instruction budgets and --corrupt
 * damages one result of the second round; both exist for the
 * self-check in tests/.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "energy/report.hh"
#include "regfile/registry.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "workloads/synthetic.hh"

using namespace carf;
using namespace carf::bench;

namespace
{

/** Set-up repetitions; set-up time is their median. */
constexpr unsigned kSetupReps = 15;
/** Content-aware d+n of the solo and probe runs (the paper's choice). */
constexpr unsigned kPaperDn = 20;
/**
 * ExperimentRunner workers on grid-paper. One worker still runs the
 * runner's lockstep partition and store read-through; more workers
 * made the benchmark too noisy on a shared 4-vCPU host (README.md,
 * "Noise").
 */
constexpr unsigned kGridWorkers = 1;
/** The fig5 d+n sweep. */
const std::vector<unsigned> kDnSweep = {8, 12, 16, 20, 24, 28, 32};

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0.0;
    bool trace = false;
    double scale = 1.0;
    bool corrupt = false;
    std::string workDir = ".bench_build";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "carf_bench: %s\nusage: carf_bench --workload "
                 "solo-int|grid-paper --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--corrupt 0|1] "
                 "[--work-dir DIR]\n",
                 problem.c_str());
    std::exit(2);
}

u64
parseU64(const std::string &key, const std::string &text)
{
    size_t used = 0;
    u64 value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage("bad value for " + key + ": '" + text + "'");
    return value;
}

double
parsePositive(const std::string &key, const std::string &text)
{
    size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || !(value > 0.0))
        usage("bad value for " + key + ": '" + text + "'");
    return value;
}

bool
parseFlag(const std::string &key, const std::string &text)
{
    if (text != "0" && text != "1")
        usage("bad value for " + key + ": '" + text + "' (0 or 1)");
    return text == "1";
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = parseU64(key, value), have_seed = true;
        else if (key == "--seconds")
            args.seconds = parsePositive(key, value);
        else if (key == "--trace")
            args.trace = parseFlag(key, value);
        else if (key == "--scale")
            args.scale = parsePositive(key, value);
        else if (key == "--corrupt")
            args.corrupt = parseFlag(key, value);
        else if (key == "--work-dir")
            args.workDir = value;
        else
            usage("unknown argument " + key);
    }
    if (args.workload.empty() || !have_seed || args.seconds == 0.0)
        usage("--workload, --seed and --seconds are required");
    return args;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One workload's job list and the traces its set-up builds. */
struct Plan
{
    /** grid-paper: the batch goes through ExperimentRunner::run with a
     *  ResultStore; otherwise sim::simulate runs one job at a time. */
    bool grid = false;
    std::vector<sim::ExperimentJob> jobs;
    /**
     * The round's passes, as indices into jobs, each timed on its own:
     * one per workload, so a pass takes a few hundredths of a second.
     * On grid-paper a pass is one ExperimentRunner::run call over the
     * workload's configs, which form one lockstep group.
     */
    std::vector<std::vector<size_t>> passes;
    std::vector<workloads::Workload> traces;
    u64 budget = 0;
    /** Job tag of the content-aware side of model.int_ipc_rel. */
    std::string caTag = "content-aware";
};

void
addTrace(Plan &plan, const workloads::Workload &workload)
{
    for (const auto &w : plan.traces)
        if (w.name == workload.name)
            return;
    plan.traces.push_back(workload);
}

void
addJob(Plan &plan, const workloads::Workload &workload,
       const core::CoreParams &params, const std::string &tag)
{
    sim::ExperimentJob job;
    job.workload = workload;
    job.params = params;
    job.options.maxInsts = plan.budget;
    job.tag = tag;
    plan.jobs.push_back(job);
    addTrace(plan, workload);
}

workloads::Workload
seededSynthetic(const std::string &name, workloads::SyntheticParams params)
{
    return {name, workloads::Suite::Int,
            [params] { return workloads::buildSynthetic(params); }};
}

u64
scaled(u64 budget, double scale)
{
    return std::max<u64>(2000, static_cast<u64>(budget * scale));
}

Plan
makePlan(const Args &args)
{
    Plan plan;
    const core::CoreParams baseline = core::CoreParams::baseline();
    const core::CoreParams ca = core::CoreParams::contentAware(kPaperDn);

    workloads::SyntheticParams int_synth;
    int_synth.seed = args.seed;
    auto synthetic_int = seededSynthetic(
        strprintf("synthetic_int.s%llu", (unsigned long long)args.seed),
        int_synth);

    // Budgets are small so that a timed pass is short: the host's
    // quiet moments are brief (README.md, "Noise").
    if (args.workload == "solo-int") {
        plan.budget = scaled(10'000, args.scale);
        std::vector<workloads::Workload> suite = workloads::intSuite();
        suite.push_back(synthetic_int);
        for (const auto &w : suite) {
            addJob(plan, w, baseline, "baseline");
            addJob(plan, w, ca, "content-aware");
        }
    } else if (args.workload == "grid-paper") {
        plan.grid = true;
        plan.budget = scaled(10'000, args.scale);
        plan.caTag = strprintf("ca%u", kPaperDn);
        std::vector<std::pair<std::string, core::CoreParams>> configs = {
            {"unlimited", core::CoreParams::unlimited()},
            {"baseline", baseline}};
        for (unsigned dn : kDnSweep)
            configs.push_back({strprintf("ca%u", dn),
                               core::CoreParams::contentAware(dn)});
        std::vector<workloads::Workload> ints = workloads::intSuite();
        ints.push_back(synthetic_int);
        const std::vector<workloads::Workload> *suites[] = {
            &ints, &workloads::fpSuite()};
        for (const auto *suite : suites)
            for (const auto &[tag, params] : configs)
                for (const auto &w : *suite)
                    addJob(plan, w, params, tag);
    } else {
        usage("unknown workload '" + args.workload + "'");
    }
    for (const auto &w : plan.traces) {
        plan.passes.emplace_back();
        for (size_t i = 0; i < plan.jobs.size(); ++i)
            if (plan.jobs[i].workload.name == w.name)
                plan.passes.back().push_back(i);
    }
    return plan;
}

// ---------------------------------------------------------------------
// Set-up and timed rounds
// ---------------------------------------------------------------------

struct Setup
{
    std::unique_ptr<emu::TraceCache> cache;
    /** Records each trace holds (the budget unless the program halts). */
    std::map<std::string, u64> traceLength;
    std::map<std::string, std::shared_ptr<const emu::TraceBuffer>> buffers;
    std::vector<double> seconds;
    std::vector<double> buildSeconds;
    /** grid-paper: the empty store the first round writes into. */
    std::unique_ptr<sim::ResultStore> store;
};

/** Fresh, empty directory under the benchmark's work directory. */
class ScratchDirs
{
  public:
    explicit ScratchDirs(const std::string &work_dir)
        : root_(std::filesystem::path(work_dir) / "work" /
                std::to_string(::getpid()))
    {
    }
    ~ScratchDirs() { std::filesystem::remove_all(root_); }

    ScratchDirs(const ScratchDirs &) = delete;
    ScratchDirs &operator=(const ScratchDirs &) = delete;

    std::string
    fresh()
    {
        auto dir = root_ / strprintf("store-%u", next_++);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir.string();
    }

  private:
    std::filesystem::path root_;
    unsigned next_ = 0;
};

/** Open an empty ResultStore as @p setup's store. */
void
openStore(Setup &setup, ScratchDirs &dirs, Spans &spans, int parent)
{
    SpanScope span(spans, "store.open", parent);
    setup.store =
        std::make_unique<sim::ResultStore>(dirs.fresh(), buildFingerprint());
}

/**
 * One cold set-up into @p setup: every trace into a fresh TraceCache
 * and, on grid-paper, an empty store. Its times are added to
 * @p timed, which may be @p setup itself.
 */
void
coldSetup(const Plan &plan, Setup &setup, Setup &timed, ScratchDirs &dirs,
          Spans &spans)
{
    SpanScope span(spans, "setup");
    auto start = Clock::now();
    setup.cache = std::make_unique<emu::TraceCache>();
    for (const auto &w : plan.traces) {
        SpanScope acquire(spans, "emu.TraceCache.acquire", span.id());
        u64 budget = plan.budget;
        setup.buffers[w.name] = setup.cache->acquire(
            w.name, budget,
            [&w, budget] { return workloads::makeTrace(w, budget); });
    }
    timed.buildSeconds.push_back(secondsSince(start));
    if (plan.grid)
        openStore(setup, dirs, spans, span.id());
    timed.seconds.push_back(secondsSince(start));
}

/**
 * Repeat the cold set-up on a throwaway cache (and store), timing it
 * into @p setup. main() spreads these repetitions over the timed
 * window, so the median of set-up time samples the whole run's host
 * conditions rather than one burst at its start.
 */
void
repeatSetup(const Plan &plan, Setup &setup, ScratchDirs &dirs, Spans &spans)
{
    Setup spare;
    coldSetup(plan, spare, setup, dirs, spans);
}

Setup
runSetup(const Plan &plan, ScratchDirs &dirs, Spans &spans, Checks &checks)
{
    Setup setup;
    coldSetup(plan, setup, setup, dirs, spans);
    for (const auto &[name, buffer] : setup.buffers) {
        checks.expect(buffer != nullptr,
                      "setup: trace cache declined " + name);
        setup.traceLength[name] =
            buffer ? std::min<u64>(buffer->size(), plan.budget) : 0;
    }
    return setup;
}

/** What one timed round produced. */
struct Round
{
    bool traced = false;
    /** Every job's result; main() keeps them for the first round only,
     *  so memory does not grow with the number of rounds. */
    std::vector<core::RunResult> results;
    /** Host seconds of each job: the benchmark's own timing of the
     *  call, or the runner's per-job wallSeconds on grid-paper. */
    std::vector<double> jobSeconds;
    /** grid-paper: wall time of each pass's ExperimentRunner::run. */
    std::vector<double> passWall;
    /** The cold jobs' wall time (all passes on grid-paper). */
    double wall = 0.0;
    /** Summed RunResult host-time fields of the round's jobs. */
    double traceBuildSeconds = 0.0;
    double simSeconds = 0.0;
    double jobWallSeconds = 0.0;
    /** grid-paper only: the warm pass's results, dropped once checked,
     *  and the store's hits (the warm pass must hit on every job). */
    std::vector<core::RunResult> warm;
    u64 storeHits = 0;
};

Round
runRound(const Plan &plan, Setup &setup, ScratchDirs &dirs, Spans &spans,
         unsigned index)
{
    Round round;
    SpanScope span(spans, "round");
    std::vector<sim::ExperimentJob> batch = plan.jobs;
    for (auto &job : batch)
        job.options.traceCache = setup.cache.get();

    if (plan.grid) {
        if (!setup.store)
            openStore(setup, dirs, spans, span.id());
        for (auto &job : batch)
            job.options.resultStore = setup.store.get();
        std::vector<std::vector<sim::ExperimentJob>> passes;
        for (const auto &pass : plan.passes) {
            passes.emplace_back();
            for (size_t i : pass)
                passes.back().push_back(batch[i]);
        }
        sim::ExperimentRunner runner(kGridWorkers);
        round.results.resize(batch.size());
        for (size_t p = 0; p < passes.size(); ++p) {
            SpanScope cold(spans, "runner.run.cold", span.id(), index);
            auto start = Clock::now();
            auto results = runner.run(passes[p]);
            round.passWall.push_back(secondsSince(start));
            cold.setCount(results.size());
            for (size_t k = 0; k < results.size(); ++k)
                round.results[plan.passes[p][k]] = std::move(results[k]);
        }
        for (double seconds : round.passWall)
            round.wall += seconds;
        {
            SpanScope warm(spans, "runner.run.warm", span.id(), index);
            round.warm = runner.run(batch);
            warm.setCount(batch.size());
        }
        round.storeHits = setup.store->hits();
        setup.store.reset(); // the next round starts from an empty store
        for (const auto &r : round.results)
            round.jobSeconds.push_back(r.wallSeconds);
    } else {
        auto start = Clock::now();
        for (size_t i = 0; i < batch.size(); ++i) {
            const auto &job = batch[i];
            SpanScope call(spans, "sim.simulate", span.id(),
                           static_cast<long>(i));
            auto job_start = Clock::now();
            round.results.push_back(
                sim::simulate(job.workload, job.params, job.options));
            round.jobSeconds.push_back(secondsSince(job_start));
            call.setCount(round.results.back().committedInsts);
        }
        round.wall = secondsSince(start);
    }
    for (const auto &r : round.results) {
        round.traceBuildSeconds += r.traceBuildSeconds;
        round.simSeconds += r.simSeconds;
        round.jobWallSeconds += r.wallSeconds;
    }
    return round;
}

/** Why @p r committed the wrong instruction count; empty when right. */
std::string
checkCommitted(const Setup &setup, const sim::ExperimentJob &job,
               const core::RunResult &r)
{
    auto it = setup.traceLength.find(job.workload.name);
    u64 want = it == setup.traceLength.end() ? 0 : it->second;
    if (r.committedInsts == want)
        return "";
    return strprintf("committed %llu, expected %llu",
                     (unsigned long long)r.committedInsts,
                     (unsigned long long)want);
}

/**
 * Check every job of @p round: committed count, buckets summing to
 * cycles, stripped JSON equal to the first round's, and on grid-paper
 * the warm pass served from the store and equal to the cold one.
 */
void
checkRound(const Plan &plan, const Setup &setup, const Round &round,
           std::vector<std::string> &first_json, Checks &checks)
{
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const auto &job = plan.jobs[i];
        const core::RunResult &r = round.results[i];
        std::string problem = checkCommitted(setup, job, r);
        if (problem.empty() && r.cycleAccounting.total() != r.cycles)
            problem = "cycle buckets do not sum to cycles";
        std::string json = sim::runResultJsonFull(r, false);
        if (first_json.size() <= i)
            first_json.push_back(json);
        else if (problem.empty() && json != first_json[i])
            problem = "result differs from the first round";
        if (problem.empty() && plan.grid &&
            sim::runResultJsonFull(round.warm[i], false) != json)
            problem = "warm store result differs from the cold pass";
        checks.expect(problem.empty(), job.workload.name + "/" + job.tag +
                                           ": " + problem);
    }
    if (plan.grid)
        checks.expect(round.storeHits == plan.jobs.size(),
                      strprintf("store: warm pass hit %llu of %zu jobs",
                                (unsigned long long)round.storeHits,
                                plan.jobs.size()));
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/**
 * Host seconds of pass @p pass of @p round, optionally only of jobs
 * whose backend is @p backend. grid-paper's total is the pass's
 * ExperimentRunner::run wall time, which also covers the runner's and
 * the store's own work; otherwise times are summed job times.
 */
double
passSeconds(const Plan &plan, const Round &round, size_t pass,
            const std::string &backend = "")
{
    if (backend.empty() && plan.grid)
        return round.passWall[pass];
    double seconds = 0.0;
    for (size_t i : plan.passes[pass])
        if (backend.empty() || plan.jobs[i].params.regFileBackend == backend)
            seconds += round.jobSeconds[i];
    return seconds;
}

/** Host seconds of every pass of @p round (see passSeconds()). */
double
roundSeconds(const Plan &plan, const Round &round,
             const std::string &backend = "")
{
    double seconds = 0.0;
    for (size_t p = 0; p < plan.passes.size(); ++p)
        seconds += passSeconds(plan, round, p, backend);
    return seconds;
}

/**
 * kips over @p rounds, optionally only jobs whose backend is @p backend:
 * the jobs' committed instructions over the sum, across the round's
 * passes, of each pass's fastest time. The host is shared, and other
 * tenants slow every core by up to 2x for seconds at a time. That
 * noise only adds time, so the fastest pass tracks the simulator's own
 * cost far more steadily than the median or a low quantile does. A
 * pass takes a few hundredths of a second, short enough to fit into
 * the host's quiet moments. Pass times have a sharp floor, so the
 * minimum depends little on how many rounds fit into the run
 * (README.md gives the measurements).
 */
double
kips(const Plan &plan, const std::vector<u64> &committed_by_job,
     const std::vector<const Round *> &rounds, const std::string &backend = "")
{
    u64 committed = 0;
    for (size_t i = 0; i < plan.jobs.size(); ++i)
        if (backend.empty() || plan.jobs[i].params.regFileBackend == backend)
            committed += committed_by_job[i];
    double seconds = 0.0;
    for (size_t p = 0; p < plan.passes.size() && !rounds.empty(); ++p) {
        double fastest = passSeconds(plan, *rounds.front(), p, backend);
        for (const Round *round : rounds)
            fastest = std::min(fastest, passSeconds(plan, *round, p, backend));
        seconds += fastest;
    }
    return seconds > 0.0 ? committed / seconds / 1e3 : 0.0;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double
rfEnergy(const energy::RixnerModel &model, const core::CoreParams &params,
         const core::RunResult &r)
{
    auto rf = regfile::makeRegFile(params.regFileBackend,
                                   params.regFileParams(), "energyRf");
    return energy::modelEnergy(
        model, rf->energyTerms(r.intRfAccesses, r.shortFileWrites));
}

/**
 * Paper-reference counts over the jobs that pair a baseline run with
 * the workload's content-aware run (INT workloads only on grid-paper,
 * d+n=20 there): mean CA/baseline IPC and CA/baseline register-file
 * energy.
 */
void
modelCounts(const Plan &plan, const Round &round, Metrics &out)
{
    std::map<std::string, size_t> baseline_at;
    for (size_t i = 0; i < plan.jobs.size(); ++i)
        if (plan.jobs[i].tag == "baseline")
            baseline_at[plan.jobs[i].workload.name] = i;

    energy::RixnerModel model;
    double ipc_rel = 0.0, ca_energy = 0.0, base_energy = 0.0;
    unsigned pairs = 0;
    u64 cycles = 0, committed = 0;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const auto &job = plan.jobs[i];
        cycles += round.results[i].cycles;
        committed += round.results[i].committedInsts;
        auto base = baseline_at.find(job.workload.name);
        if (job.tag != plan.caTag || base == baseline_at.end() ||
            job.workload.suite == workloads::Suite::Fp)
            continue;
        const auto &b = round.results[base->second];
        ipc_rel += round.results[i].ipc / b.ipc;
        ca_energy += rfEnergy(model, job.params, round.results[i]);
        base_energy +=
            rfEnergy(model, plan.jobs[base->second].params, b);
        ++pairs;
    }
    out["model.cycles_total"] = {static_cast<double>(cycles), "count"};
    out["model.committed_total"] = {static_cast<double>(committed), "count"};
    out["model.int_ipc_rel"] = {pairs ? ipc_rel / pairs : 0.0, "ratio"};
    out["model.rf_energy_frac"] = {
        base_energy > 0.0 ? ca_energy / base_energy : 0.0, "frac"};
}

/**
 * fig5's reference point on grid-paper: mean INT IPC of CA d+n=20
 * relative to unlimited (the paper reports about 98.3%).
 */
double
fig5Relative(const Plan &plan, const Round &round)
{
    std::map<std::string, double> unlimited;
    for (size_t i = 0; i < plan.jobs.size(); ++i)
        if (plan.jobs[i].tag == "unlimited")
            unlimited[plan.jobs[i].workload.name] = round.results[i].ipc;
    double sum = 0.0;
    unsigned n = 0;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const auto &job = plan.jobs[i];
        if (job.tag != plan.caTag ||
            job.workload.suite != workloads::Suite::Int)
            continue;
        sum += round.results[i].ipc / unlimited[job.workload.name];
        ++n;
    }
    return n ? sum / n : 0.0;
}

/**
 * The store probe: a cold lookup-and-put pass and a warm lookup pass of
 * one round's results through a fresh ResultStore. Every cold lookup
 * must miss and every warm one must return the stored result.
 */
void
probeStore(const Plan &plan, const Round &round, ScratchDirs &dirs,
           Spans &spans, Checks &checks, Metrics &out)
{
    SpanScope layer(spans, "store");
    auto open_start = Clock::now();
    sim::ResultStore store(dirs.fresh(), buildFingerprint());
    double open_s = secondsSince(open_start);

    std::vector<std::string> keys;
    for (const auto &job : plan.jobs)
        keys.push_back(store.key(job.workload.name, job.params, job.options));
    double get_s = 0.0, put_s = 0.0;
    for (size_t i = 0; i < keys.size(); ++i) {
        auto start = Clock::now();
        bool missed = !store.get(keys[i]);
        get_s += secondsSince(start);
        start = Clock::now();
        store.put(keys[i], round.results[i]);
        put_s += secondsSince(start);
        checks.expect(missed, "store: fresh store hit " + keys[i]);
    }
    auto warm_start = Clock::now();
    for (size_t i = 0; i < keys.size(); ++i) {
        auto start = Clock::now();
        auto hit = store.get(keys[i]);
        get_s += secondsSince(start);
        checks.expect(hit && sim::runResultJsonFull(*hit) ==
                                 sim::runResultJsonFull(round.results[i]),
                      "store: warm lookup differs for " + keys[i]);
    }
    double warm_s = secondsSince(warm_start);
    double n = static_cast<double>(keys.size());
    out["store.put_us"] = {put_s / n * 1e6, "us"};
    out["store.get_us"] = {get_s / (2 * n) * 1e6, "us"};
    out["store.open_s"] = {open_s, "s"};
    out["store.warm_pass_s"] = {warm_s, "s"};
}

/** Per-layer metrics of the traced run (see README.md for the map). */
Metrics
layerMetrics(const Plan &plan, const Setup &setup,
             const std::vector<Round> &rounds,
             const std::vector<u64> &committed_by_job, ScratchDirs &dirs,
             Spans &spans, Checks &checks)
{
    Metrics out;
    std::vector<const Round *> untraced, traced;
    for (const Round &round : rounds)
        (round.traced ? traced : untraced).push_back(&round);
    const Round &first = rounds.front();

    out["trace.kips_overhead"] = {kips(plan, committed_by_job, traced) -
                                      kips(plan, committed_by_job, untraced),
                                  "kips"};
    out["emu.build_s"] = {median(setup.buildSeconds), "s"};
    auto cache = setup.cache->stats();
    out["emu.cache_hits"] = {static_cast<double>(cache.hits), "count"};
    out["emu.cache_builds"] = {static_cast<double>(cache.builds), "count"};

    std::vector<TraceRef> traces;
    for (const auto &w : plan.traces)
        traces.push_back({&w, setup.buffers.at(w.name).get(),
                          setup.traceLength.at(w.name)});
    ReferenceRuns reference;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const auto &job = plan.jobs[i];
        if (job.tag == "baseline" || job.tag == plan.caTag)
            reference[{job.workload.name, job.params.regFileBackend}] =
                sim::runResultJsonFull(first.results[i], false);
    }
    probeEmu(traces, spans, checks, out);
    probeOpLayers(traces, spans, checks, out);
    probeCore(traces, reference, spans, checks, out);

    u64 cycles = 0, skipped = 0;
    core::CycleAccounting buckets;
    for (const auto &r : first.results) {
        cycles += r.cycles;
        skipped += r.fastPathSkippedCycles;
        for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
            buckets.counts[b] += r.cycleAccounting.counts[b];
    }
    out["core.skipped_cycle_frac"] = {
        static_cast<double>(skipped) / cycles, "frac"};
    for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
        out[strprintf("core.bucket.%s_frac",
                      core::CycleAccounting::bucketName(b))] = {
            static_cast<double>(buckets.counts[b]) / cycles, "frac"};

    std::vector<double> build, sim_s, eff;
    for (const Round *round : untraced) {
        build.push_back(round->traceBuildSeconds);
        sim_s.push_back(round->simSeconds);
        eff.push_back(round->jobWallSeconds /
                      (round->wall * (plan.grid ? kGridWorkers : 1)));
    }
    out["sim.trace_build_s"] = {median(build), "s"};
    out["sim.sim_s"] = {median(sim_s), "s"};
    out["runner.parallel_eff"] = {median(eff), "frac"};
    out["runner.jobs"] = {static_cast<double>(plan.grid ? kGridWorkers : 1),
                          "count"};

    probeStore(plan, first, dirs, spans, checks, out);
    modelCounts(plan, first, out);
    return out;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        out += strprintf("%s%s:{\"value\":%.17g,\"unit\":%s}",
                         out.size() > 1 ? ", " : "",
                         sim::jsonString(name).c_str(), m.value,
                         sim::jsonString(m.unit).c_str());
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Plan plan = makePlan(args);
    Checks checks;
    Spans spans;
    spans.setActive(args.trace);
    ScratchDirs dirs(args.workDir);

    Setup setup = runSetup(plan, dirs, spans, checks);

    // Timed rounds for --seconds (at least two, so every result is
    // compared across rounds). The traced run alternates untraced and
    // traced rounds and keeps their counts equal.
    std::vector<Round> rounds;
    std::vector<std::string> first_json;
    // The other kSetupReps - 1 set-ups are spread evenly over the
    // window, between rounds, with tracing as in the round before.
    unsigned min_rounds = args.trace ? 4 : 2;
    // Peak resident set after the cold set-up and the first round, before
    // any spare set-up: later, heap fragmentation from the spare set-ups
    // and the rounds' bookkeeping raises it with the run's length.
    double first_round_rss = 0.0;
    double setup_every = args.seconds / kSetupReps;
    auto timed_start = Clock::now();
    while (rounds.size() < min_rounds ||
           secondsSince(timed_start) < args.seconds ||
           (args.trace && rounds.size() % 2)) {
        while (setup.seconds.size() < kSetupReps &&
               secondsSince(timed_start) >=
                   setup_every * setup.seconds.size())
            repeatSetup(plan, setup, dirs, spans);
        bool traced = args.trace && rounds.size() % 2 == 1;
        spans.setActive(traced);
        Round round = runRound(plan, setup, dirs, spans, rounds.size());
        round.traced = traced;
        if (args.corrupt && rounds.size() == 1)
            ++round.results[0].cycles;
        checkRound(plan, setup, round, first_json, checks);
        // Assigning {} frees the storage, which clear() would keep.
        round.warm = {};
        if (!rounds.empty())
            round.results = {};
        rounds.push_back(std::move(round));
        if (rounds.size() == 1)
            first_round_rss = peakRssMb();
    }
    while (setup.seconds.size() < kSetupReps)
        repeatSetup(plan, setup, dirs, spans);
    std::vector<u64> committed_by_job;
    for (const auto &r : rounds.front().results)
        committed_by_job.push_back(r.committedInsts);
    spans.setActive(args.trace);

    Metrics metrics;
    if (args.trace) {
        metrics = layerMetrics(plan, setup, rounds, committed_by_job, dirs,
                               spans, checks);
    } else {
        std::vector<const Round *> all;
        for (const Round &round : rounds)
            all.push_back(&round);
        metrics["kips"] = {kips(plan, committed_by_job, all), "kips"};
        metrics["kips.baseline"] = {
            kips(plan, committed_by_job, all, "baseline"), "kips"};
        metrics["kips.content-aware"] = {
            kips(plan, committed_by_job, all, "content-aware"), "kips"};
        metrics["setup_s"] = {median(setup.seconds), "s"};
        metrics["peak_rss_mb"] = {first_round_rss, "MB"};
    }

    // The report line: seed, paper-reference counts and diagnostics.
    Metrics model;
    modelCounts(plan, rounds.front(), model);
    std::string report = strprintf(
        "{\"carf_bench\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
        "\"rounds\":%zu,\"jobs_per_round\":%zu,\"budget\":%llu,"
        "\"model\":%s",
        sim::jsonString(args.workload).c_str(),
        (unsigned long long)args.seed, args.trace ? 1 : 0, rounds.size(),
        plan.jobs.size(), (unsigned long long)plan.budget,
        metricsJson(model).c_str());
    if (plan.grid)
        report += strprintf(",\"fig5_int_ca20_vs_unlimited\":%.6f",
                            fig5Relative(plan, rounds.front()));
    auto list = [](const char *key, const std::vector<double> &values) {
        std::string out = strprintf(",\"%s\":[", key);
        for (size_t i = 0; i < values.size(); ++i)
            out += strprintf("%s%.6g", i ? "," : "", values[i]);
        return out + "]";
    };
    std::vector<double> walls, base_s, ca_s;
    for (const Round &round : rounds) {
        walls.push_back(round.wall);
        base_s.push_back(roundSeconds(plan, round, "baseline"));
        ca_s.push_back(roundSeconds(plan, round, "content-aware"));
    }
    report += list("round_wall_s", walls) +
              list("round_baseline_s", base_s) +
              list("round_content_aware_s", ca_s) +
              list("setup_rep_s", setup.seconds);
    auto cache = setup.cache->stats();
    report += strprintf(
        ",\"trace_cache\":{\"hits\":%llu,\"builds\":%llu,"
        "\"fallbacks\":%llu,\"evictions\":%llu}",
        (unsigned long long)cache.hits, (unsigned long long)cache.builds,
        (unsigned long long)cache.fallbacks,
        (unsigned long long)cache.evictions);
    report += ",\"paper\":{\"int_ipc_rel\":0.983,\"rf_energy_frac_below\":0.5,"
              "\"note\":\"model compared with the paper, not validated "
              "against hardware; modelled caches start empty (no "
              "fastForward)\"}";
    if (args.trace) {
        std::filesystem::path dir =
            std::filesystem::path(args.workDir) / "spans";
        std::filesystem::create_directories(dir);
        std::string path =
            (dir / strprintf("%s-seed%llu.json", args.workload.c_str(),
                             (unsigned long long)args.seed))
                .string();
        checks.expect(spans.write(path), "spans: cannot write " + path);
        report += ",\"spans\":" + sim::jsonString(path);
    }
    report += ",\"failures\":[";
    for (size_t i = 0; i < checks.notes.size(); ++i)
        report += (i ? "," : "") + sim::jsonString(checks.notes[i]);
    report += "]}}";
    std::printf("%s\n", report.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed ? "false" : "true",
                (unsigned long long)checks.attempted,
                (unsigned long long)checks.failed,
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return checks.failed ? 1 : 0;
}
