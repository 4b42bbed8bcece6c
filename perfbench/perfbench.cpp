// perfbench: the wall-clock benchmark program for the simulated RMS.
//
// One process runs one workload (see README.md for why each exists).  A
// run builds a fresh world per repetition -- Metacomputer construction
// plus PopulateCollection, timed as set-up -- then advances the
// simulation through a fixed simulated window of arrivals and
// reassessment, timed as the measured window.  Repetitions cycle through
// a fixed list of sub-seeds derived from --seed, so the simulated result
// of every repetition is determined by (seed, sub-seed) alone and a
// repeated sub-seed must reproduce its fingerprint exactly.
//
// With --trace 1 the process instead runs sub-seed 0 twice, untraced and
// traced (KernelProfiler on, real wall clock), checks the two
// fingerprints agree, and then times each layer's public entry points on
// the traced world's end state.  The benchmark records a span around every
// call it makes into a layer and writes spans and the kernel profile out
// when the run ends.
//
// Output: one JSON object on stdout holding raw per-repetition figures;
// perfbench/run.py turns them into the reported metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/random_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "core/schedulers/stencil_scheduler.h"
#include "obs/json.h"
#include "workload/metacomputer.h"
#include "workload/session.h"

namespace perfbench {
namespace {

using legion::ClassObject;
using legion::CollectionData;
using legion::CollectionObject;
using legion::Duration;
using legion::HostObject;
using legion::Loid;
using legion::LoidSpace;
using legion::Metacomputer;
using legion::MetacomputerConfig;
using legion::NetworkParams;
using legion::QueryOptions;
using legion::Result;
using legion::Rng;
using legion::SchedulerObject;
using legion::SimKernel;
using legion::SimTime;
using legion::WorkloadSession;
using legion::obs::JsonNumber;
using legion::obs::JsonString;

// ---- Small utilities --------------------------------------------------------

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: independent streams from one seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over the canonical text of a simulated result.
class Fingerprint {
 public:
  template <typename T>
  Fingerprint& operator<<(const T& value) {
    std::ostringstream os;
    os << value << ';';
    for (char c : os.str()) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Comma-separated JSON object/array bodies.
class JsonList {
 public:
  void Add(const std::string& element) {
    if (!body_.empty()) body_ += ",";
    body_ += element;
  }
  void Field(const std::string& key, const std::string& raw) {
    Add(JsonString(key) + ":" + raw);
  }
  void Num(const std::string& key, double v) { Field(key, JsonNumber(v)); }
  std::string Object() const { return "{" + body_ + "}"; }
  std::string Array() const { return "[" + body_ + "]"; }

 private:
  std::string body_;
};

std::string NumArray(const std::vector<double>& values) {
  JsonList list;
  for (double v : values) list.Add(JsonNumber(v));
  return list.Array();
}

// ---- Spans: the benchmark's own trace of its calls into each layer ----------

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(WallNow()) {}

  // Records [start, end) around its lifetime; `ops` is how many layer
  // operations the span covers.
  class Scope {
   public:
    Scope(Spans* spans, std::string_view name, std::uint64_t ops)
        : spans_(spans->enabled_ ? spans : nullptr) {
      if (spans_ == nullptr) return;
      index_ = spans_->records_.size();
      spans_->records_.push_back(
          {std::string(name), WallNow() - spans_->origin_, 0.0,
           spans_->open_, ops});
      spans_->open_ = static_cast<std::int64_t>(index_);
    }
    ~Scope() {
      if (spans_ == nullptr) return;
      Record& record = spans_->records_[index_];
      record.end = WallNow() - spans_->origin_;
      spans_->open_ = record.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  // Chrome trace_event JSON: one complete ("X") event per span, with its
  // id, parent id and operation count in args.
  std::string ChromeJson() const {
    JsonList events;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      JsonList args;
      args.Num("id", static_cast<double>(i));
      args.Num("parent", static_cast<double>(r.parent));
      args.Num("ops", static_cast<double>(r.ops));
      JsonList event;
      event.Field("name", JsonString(r.name));
      event.Field("cat", JsonString(Layer(r.name)));
      event.Field("ph", JsonString("X"));
      event.Num("ts", r.start * 1e6);
      event.Num("dur", (r.end - r.start) * 1e6);
      event.Num("pid", 1);
      event.Num("tid", 1);
      event.Field("args", args.Object());
      events.Add(event.Object());
    }
    return "{\"traceEvents\":" + events.Array() + "}\n";
  }

 private:
  struct Record {
    std::string name;
    double start;
    double end;
    std::int64_t parent;  // -1 for a root span
    std::uint64_t ops;
  };
  static std::string Layer(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  bool enabled_;
  double origin_;
  std::vector<Record> records_;
  std::int64_t open_ = -1;
};

// ---- Workloads --------------------------------------------------------------

// Every world spans this many administrative domains.
constexpr std::int64_t kDomains = 8;
// Arrivals stop this long before the measured window ends -- four RPC
// timeouts -- so every app offered has reached its placement outcome.
constexpr Duration kDrain = Duration::Seconds(120);

struct SessionSpec {
  std::string policy;        // random | irs | load_aware | cost_aware
  double rate_per_s = 0.0;   // Poisson arrival rate
  std::int64_t domain = -1;  // ScopeToDomain target (-1 = global)
  double max_staleness_s = -1.0;  // BoundStaleness (< 0 = unbounded)
};

struct WorkloadSpec {
  std::string name;
  std::size_t hosts_per_domain = 32;
  double smp_fraction = 0.2;
  double batch_fraction = 0.0;
  double reassess_s = 10.0;
  bool federated = false;  // delta push every 5 s (the default period)
  double inter_domain_loss = 0.0;
  std::vector<SessionSpec> sessions;
  std::size_t app_instances = 8;
  double app_work_mips_s = 2000.0;
  double app_cpu_fraction = 0.5;
  std::size_t app_memory_mb = 32;
  double arrival_window_s = 600.0;  // arrivals land in [0, window)
  int subseeds = 3;                 // distinct inputs per run
  // What op_failed_ratio counts: "apps" (rejected over offered) or
  // "updates" (RPCs timed out or refused over RPCs started, nearly all
  // of them Collection update pushes).
  std::string failure_basis = "apps";
};

WorkloadSpec Telemetry() {
  WorkloadSpec spec;
  spec.name = "telemetry";
  spec.hosts_per_domain = 250;
  spec.reassess_s = 10.0;
  spec.inter_domain_loss = 0.002;
  // A sparse, domain-scoped probe stream so placement metrics exist;
  // the Collection write path carries the run.
  for (std::int64_t d = 0; d < kDomains; ++d) {
    spec.sessions.push_back({"random", 0.025, d, -1.0});
  }
  spec.app_instances = 1;
  spec.app_work_mips_s = 2000.0;
  spec.app_cpu_fraction = 0.25;
  spec.arrival_window_s = 240.0;
  spec.subseeds = 4;
  spec.failure_basis = "updates";
  return spec;
}

WorkloadSpec Placement() {
  WorkloadSpec spec;
  spec.name = "placement";
  spec.hosts_per_domain = 32;
  spec.smp_fraction = 0.3;
  spec.batch_fraction = 0.1;
  spec.reassess_s = 60.0;
  spec.inter_domain_loss = 0.001;
  for (const char* policy : {"irs", "random", "load_aware", "cost_aware"}) {
    spec.sessions.push_back({policy, 0.1, -1, -1.0});
  }
  spec.app_instances = 8;
  spec.app_work_mips_s = 20000.0;
  spec.app_cpu_fraction = 0.5;
  spec.arrival_window_s = 900.0;
  spec.subseeds = 8;
  return spec;
}

WorkloadSpec FederatedMix() {
  WorkloadSpec spec;
  spec.name = "federated_mix";
  spec.hosts_per_domain = 64;
  spec.reassess_s = 10.0;
  spec.federated = true;
  spec.inter_domain_loss = 0.002;
  // Half the traffic is global with a staleness bound below the push
  // period (so the root refresh-pulls); half is domain-scoped.
  spec.sessions.push_back({"load_aware", 0.5, -1, 2.0});
  for (std::int64_t d = 0; d < kDomains; ++d) {
    spec.sessions.push_back({"load_aware", 0.5 / kDomains, d, -1.0});
  }
  spec.app_instances = 4;
  spec.app_work_mips_s = 20000.0;
  spec.app_cpu_fraction = 0.5;
  // Memory-bound: hosts fill up within the window, so a steady share of
  // apps is refused and stale views cost placements.
  spec.app_memory_mb = 320;
  spec.arrival_window_s = 300.0;
  spec.subseeds = 6;
  return spec;
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (WorkloadSpec spec : {Telemetry(), Placement(), FederatedMix()}) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

// ---- Scheduler policies -----------------------------------------------------

// Exposes the host-match query text every policy builds.
struct QueryText : SchedulerObject {
  using SchedulerObject::HostMatchQuery;
};

const std::vector<std::string>& AllPolicies() {
  static const std::vector<std::string> policies = {
      "random", "irs", "load_aware", "cost_aware", "stencil"};
  return policies;
}

// The QueryOptions each policy passes to QueryHosts (see the policies'
// ComputeSchedule), on top of the session's routing scope.
QueryOptions PolicyOptions(const std::string& policy, std::int64_t domain) {
  QueryOptions options;
  options.domain_scope = domain;
  options.max_results = policy == "stencil" ? 4096 : 1024;
  if (policy == "load_aware") options.order_by = "host_load";
  if (policy == "cost_aware") options.order_by = "host_cost_per_cpu_second";
  return options;
}

SchedulerObject* MakeScheduler(SimKernel* kernel, Metacomputer* mc,
                               const std::string& policy, std::uint64_t seed,
                               std::size_t instances) {
  const Loid loid = kernel->minter().Mint(LoidSpace::kService, 0);
  const Loid collection = mc->collection()->loid();
  const Loid enactor = mc->enactor()->loid();
  if (policy == "random") {
    return kernel->AddActor<legion::RandomScheduler>(loid, collection,
                                                     enactor, seed);
  }
  if (policy == "irs") {
    return kernel->AddActor<legion::IrsScheduler>(loid, collection, enactor,
                                                  4, seed);
  }
  if (policy == "load_aware") {
    return kernel->AddActor<legion::LoadAwareScheduler>(loid, collection,
                                                        enactor);
  }
  if (policy == "cost_aware") {
    return kernel->AddActor<legion::CostAwareScheduler>(loid, collection,
                                                        enactor);
  }
  // stencil: a one-row band over the requested instances.
  return kernel->AddActor<legion::StencilScheduler>(loid, collection, enactor,
                                                    1, instances);
}

// ---- One repetition ---------------------------------------------------------

struct World {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<Metacomputer> mc;
  std::vector<std::unique_ptr<WorkloadSession>> sessions;
};

// Registry cells shared by every Collection of a world ({component=
// collection}), read as window deltas.
struct CollectionCounters {
  std::uint64_t updates_applied = 0, updates_rejected = 0, queries = 0,
                index_hits = 0, fallbacks = 0, cache_hits = 0,
                cache_misses = 0, delta_records = 0, refresh_pulls = 0,
                stale_answers = 0;
  double staleness_sum_ms = 0.0;
  std::uint64_t staleness_count = 0;
};

CollectionCounters ReadCollectionCounters(const Metacomputer& mc) {
  const CollectionObject& c = *mc.collection();
  CollectionCounters out;
  out.updates_applied = c.updates_applied();
  out.updates_rejected = c.updates_rejected();
  out.queries = c.queries_served();
  out.index_hits = c.index_hits();
  out.fallbacks = c.planner_fallbacks();
  out.cache_hits = c.compile_cache_hits();
  out.cache_misses = c.compile_cache_misses();
  out.delta_records = c.delta_records();
  out.refresh_pulls = c.refresh_pulls();
  out.stale_answers = c.stale_answers();
  const legion::obs::MetricsSnapshot snap = mc.kernel()->metrics().Snapshot();
  for (const auto& [key, histogram] : snap.histograms) {
    if (key.rfind("collection_staleness_ms{", 0) == 0) {
      out.staleness_sum_ms += histogram.sum;
      out.staleness_count += histogram.count;
    }
  }
  return out;
}

// Sums a counter across every label set ("name{...}").
std::uint64_t SumCounter(const legion::obs::MetricsSnapshot& snap,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : snap.counters) {
    if (key.rfind(name + "{", 0) == 0) total += value;
  }
  return total;
}

struct RepResult {
  int subseed = 0;
  bool traced = false;
  double build_s = 0, populate_s = 0, window_wall_s = 0, window_sim_s = 0;
  std::uint64_t events = 0, messages = 0, bytes = 0, rpcs = 0,
                rpc_timeouts = 0;
  std::uint64_t offered = 0, placed = 0;
  std::vector<double> waits_s;
  CollectionCounters collection;  // window deltas
  legion::EnactorStats enactor;
  std::uint64_t suspects_skipped = 0, mappings_unplaced = 0;
  std::uint64_t queue_hwm = 0, rpc_inflight_hwm = 0;
  double records_per_host = 0, live_per_host = 0;
  std::string fingerprint;
  std::uint64_t checks = 0;
  std::vector<std::string> violations;
};

NetworkParams NetFor(const WorkloadSpec& spec, std::uint64_t seed) {
  NetworkParams net;
  net.jitter_fraction = 0.05;
  net.inter_domain_loss = spec.inter_domain_loss;
  net.seed = Mix(seed, 2);
  return net;
}

constexpr std::uint64_t kTopologySeed = 42;

MetacomputerConfig ConfigFor(const WorkloadSpec& spec) {
  MetacomputerConfig config;
  config.domains = kDomains;
  config.hosts_per_domain = spec.hosts_per_domain;
  config.vaults_per_domain = 1;
  config.smp_fraction = spec.smp_fraction;
  config.batch_fraction = spec.batch_fraction;
  // The metacomputer is the system under test: one topology per
  // workload, whatever the seed.  The seed draws the inputs -- arrivals,
  // scheduler choices, network jitter and loss.
  config.seed = kTopologySeed;
  config.reassess_period = Duration::Seconds(spec.reassess_s);
  config.start_reassessment = true;
  config.federated = spec.federated;
  return config;
}

// Serializes a query answer for byte-for-byte comparison.
std::string AnswerBytes(const Result<CollectionData>& answer) {
  if (!answer.ok()) return "error:" + answer.status().ToString();
  std::string out;
  for (const legion::CollectionRecord& r : *answer) {
    out += r.member.ToString() + "|" + r.attributes.ToString() + "|" +
           std::to_string(r.updated_at.micros()) + "|" +
           std::to_string(r.update_count) + "\n";
  }
  return out;
}


std::vector<legion::Implementation> UniversalImplementations() {
  std::vector<legion::Implementation> implementations;
  for (const legion::Platform& platform : legion::KnownPlatforms()) {
    legion::Implementation impl;
    impl.arch = platform.arch;
    impl.os_name = platform.os_name;
    implementations.push_back(impl);
  }
  return implementations;
}

// The domain a workload routes `policy` to: its first session of that
// policy decides (-1 = global, also for policies the workload lacks).
std::int64_t PolicyDomain(const WorkloadSpec& spec,
                          const std::string& policy) {
  for (const SessionSpec& session : spec.sessions) {
    if (session.policy == policy) return session.domain;
  }
  return -1;
}

// The Collection a query routed to `domain` is answered by.
CollectionObject* CollectionFor(const Metacomputer& mc, std::int64_t domain) {
  if (domain >= 0 && mc.federation() != nullptr) {
    return mc.federation()->sub(static_cast<legion::DomainId>(domain));
  }
  return mc.collection();
}

struct Probe {
  std::string text;
  QueryOptions options;
  CollectionObject* collection;
};

// Query texts probed for index/scan equivalence: every policy's own text
// with its options and routing, plus texts the planner answers from the
// attribute indexes.
std::vector<Probe> ProbeQueries(const WorkloadSpec& spec,
                                const Metacomputer& mc) {
  std::vector<Probe> probes;
  const std::string universal =
      QueryText::HostMatchQuery(UniversalImplementations());
  for (const std::string& policy : AllPolicies()) {
    const std::int64_t domain = PolicyDomain(spec, policy);
    probes.push_back({universal, PolicyOptions(policy, domain),
                      CollectionFor(mc, domain)});
  }
  QueryOptions top;
  top.order_by = "host_load";
  top.max_results = 64;
  for (const legion::Platform& platform : legion::KnownPlatforms()) {
    const std::string text = std::string("$host_arch == \"") + platform.arch +
                             "\" and $host_os_name == \"" + platform.os_name +
                             "\"";
    probes.push_back({text, QueryOptions{}, mc.collection()});
    probes.push_back({text, top, mc.collection()});
  }
  probes.push_back({"$host_load < 0.5", top, mc.collection()});
  probes.push_back({"$host_kind == \"smp\"", QueryOptions{}, mc.collection()});
  return probes;
}

// A Poisson process at `rate_per_s` over [start, start + window)
// conditioned on its expected count: that many arrival times drawn
// uniformly and sorted.  Every seed then offers the same number of apps,
// so per-run throughput does not swing with the arrival count.
std::vector<SimTime> FixedCountArrivals(Rng& rng, double rate_per_s,
                                        SimTime start, Duration window) {
  const auto count =
      static_cast<std::size_t>(rate_per_s * window.seconds() + 0.5);
  std::vector<SimTime> arrivals;
  for (std::size_t i = 0; i < count; ++i) {
    arrivals.push_back(start + Duration::Micros(rng.UniformInt(
                                   0, window.micros() - 1)));
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

struct Rep {
  World world;
  RepResult result;
};

void CheckInvariants(const WorkloadSpec& spec, const World& world,
                     RepResult* out) {
  const Metacomputer& mc = *world.mc;
  const SimTime now = world.kernel->Now();
  // No host's live reservations exceed its capacity.
  for (const HostObject* host : mc.hosts()) {
    ++out->checks;
    const double load = host->reservations().SharedCpuLoadAt(now);
    const double capacity =
        host->spec().cpus * host->spec().oversubscription + 1e-9;
    if (load > capacity) {
      out->violations.push_back("capacity " + host->spec().name + " " +
                                std::to_string(load));
    }
  }
  // The root holds one record per host (and each sub one per domain host).
  ++out->checks;
  if (mc.collection()->record_count() != mc.hosts().size()) {
    out->violations.push_back(
        "root records " + std::to_string(mc.collection()->record_count()) +
        " != hosts " + std::to_string(mc.hosts().size()));
  }
  if (mc.federation() != nullptr) {
    for (const auto& [domain, sub] : mc.federation()->subs()) {
      ++out->checks;
      if (sub->record_count() != spec.hosts_per_domain) {
        out->violations.push_back("sub " + std::to_string(domain) +
                                  " records " +
                                  std::to_string(sub->record_count()));
      }
    }
  }
  // Indexed answers equal full-scan answers byte for byte.
  for (const Probe& probe : ProbeQueries(spec, mc)) {
    ++out->checks;
    QueryOptions scan = probe.options;
    scan.force_scan = true;
    if (AnswerBytes(probe.collection->QueryLocal(probe.text, probe.options)) !=
        AnswerBytes(probe.collection->QueryLocal(probe.text, scan))) {
      out->violations.push_back("index != scan: " + probe.text);
    }
  }
}

std::string FingerprintOf(const World& world, const RepResult& r) {
  Fingerprint fp;
  fp << r.events << r.messages << r.bytes << r.rpcs << r.rpc_timeouts
     << r.offered << r.placed;
  const CollectionCounters& c = r.collection;
  fp << c.updates_applied << c.updates_rejected << c.queries << c.index_hits
     << c.fallbacks << c.cache_hits << c.cache_misses << c.delta_records
     << c.refresh_pulls << c.stale_answers << c.staleness_sum_ms
     << c.staleness_count;
  const legion::EnactorStats& e = r.enactor;
  fp << e.negotiations << e.reservations_requested << e.reservations_granted
     << e.reservations_failed << e.reservations_cancelled << e.rereservations
     << e.enactments << e.enact_failures << e.retries << e.breaker_open
     << e.batches_sent << e.batched_slots << e.requests_parked;
  fp << r.suspects_skipped << r.mappings_unplaced << r.records_per_host
     << r.live_per_host;
  for (std::size_t s = 0; s < world.sessions.size(); ++s) {
    for (const legion::SessionAppResult& app : world.sessions[s]->results()) {
      fp << s << app.app_id << app.placed << app.arrived.micros()
         << app.placed_at.micros() << app.finished_at.micros();
    }
  }
  return fp.Hex();
}

CollectionCounters CollectionDelta(const CollectionCounters& a,
                                   const CollectionCounters& b) {
  CollectionCounters d;
  d.updates_applied = b.updates_applied - a.updates_applied;
  d.updates_rejected = b.updates_rejected - a.updates_rejected;
  d.queries = b.queries - a.queries;
  d.index_hits = b.index_hits - a.index_hits;
  d.fallbacks = b.fallbacks - a.fallbacks;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.delta_records = b.delta_records - a.delta_records;
  d.refresh_pulls = b.refresh_pulls - a.refresh_pulls;
  d.stale_answers = b.stale_answers - a.stale_answers;
  d.staleness_sum_ms = b.staleness_sum_ms - a.staleness_sum_ms;
  d.staleness_count = b.staleness_count - a.staleness_count;
  return d;
}

// The set-up a run pays per world: Metacomputer construction plus
// PopulateCollection, each timed.
void BuildWorld(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                Spans* spans, World* world, double* build_s,
                double* populate_s) {
  const double t0 = WallNow();
  {
    Spans::Scope span(spans, "metacomputer.build", 1);
    world->kernel = std::make_unique<SimKernel>(NetFor(spec, seed));
    if (traced) {
      world->kernel->profiler().Enable();
      world->kernel->wallclock().UseRealTime();
    }
    world->mc = std::make_unique<Metacomputer>(world->kernel.get(),
                                               ConfigFor(spec));
  }
  const double t1 = WallNow();
  {
    Spans::Scope span(spans, "metacomputer.populate", 1);
    world->mc->PopulateCollection();
  }
  *build_s = t1 - t0;
  *populate_s = WallNow() - t1;
}

// Builds the world for (seed, subseed), runs the measured window, and
// checks the end state.  The world stays alive for the layer probes.
// A repeat of a sub-seed skips the end-of-run checks: its fingerprint
// must equal the first run's, whose end state was checked.
std::unique_ptr<Rep> RunRep(const WorkloadSpec& spec, std::uint64_t run_seed,
                            int subseed, bool traced, bool check,
                            Spans* spans) {
  auto rep = std::make_unique<Rep>();
  World& world = rep->world;
  RepResult& r = rep->result;
  r.subseed = subseed;
  r.traced = traced;
  const std::uint64_t seed = Mix(run_seed, 100 + subseed);

  BuildWorld(spec, seed, traced, spans, &world, &r.build_s, &r.populate_s);

  SimKernel& kernel = *world.kernel;
  const Duration window = Duration::Seconds(spec.arrival_window_s);
  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const SessionSpec& s = spec.sessions[i];
    SchedulerObject* scheduler = MakeScheduler(
        &kernel, world.mc.get(), s.policy, Mix(seed, 10 + i),
        spec.app_instances);
    auto session =
        std::make_unique<WorkloadSession>(world.mc.get(), scheduler);
    if (s.domain >= 0) {
      session->ScopeToDomain(static_cast<legion::DomainId>(s.domain));
    }
    if (s.max_staleness_s >= 0.0) {
      session->BoundStaleness(Duration::Seconds(s.max_staleness_s));
    }
    legion::ApplicationSpec app =
        legion::MakeParameterStudy(spec.app_instances, spec.app_work_mips_s);
    app.name = "app" + std::to_string(i);
    app.cpu_fraction_per_instance = spec.app_cpu_fraction;
    app.memory_mb_per_instance = spec.app_memory_mb;
    Rng rng(Mix(seed, 20 + i));
    WorkloadSession* raw = session.get();
    for (const SimTime& when :
         FixedCountArrivals(rng, s.rate_per_s, kernel.Now(), window)) {
      kernel.ScheduleAt(when, [raw, app, spans] {
        Spans::Scope span(spans, "session.submit", 1);
        raw->Submit(app);
      });
    }
    world.sessions.push_back(std::move(session));
  }

  // Kernel and Enactor counts start from zero at the window; the
  // Collection and scheduler cells are read as deltas.
  world.mc->ResetAllStats();
  const CollectionCounters c0 = ReadCollectionCounters(*world.mc);
  const legion::obs::MetricsSnapshot m0 = kernel.metrics().Snapshot();
  const double t3 = WallNow();
  const SimTime sim0 = kernel.Now();
  {
    Spans::Scope span(spans, "sim.run", 1);
    kernel.RunFor(window + kDrain);
  }
  r.window_wall_s = WallNow() - t3;
  r.window_sim_s = (kernel.Now() - sim0).seconds();

  const legion::KernelStats& k = kernel.stats();
  r.events = k.events_run;
  r.messages = k.messages_sent;
  r.bytes = k.bytes_sent;
  r.rpcs = k.rpcs_started;
  r.rpc_timeouts = k.rpcs_timed_out;
  r.collection = CollectionDelta(c0, ReadCollectionCounters(*world.mc));
  r.enactor = world.mc->enactor()->stats();
  const legion::obs::MetricsSnapshot m1 = kernel.metrics().Snapshot();
  r.suspects_skipped =
      SumCounter(m1, "suspects_skipped") - SumCounter(m0, "suspects_skipped");
  r.mappings_unplaced = SumCounter(m1, "mappings_unplaced") -
                        SumCounter(m0, "mappings_unplaced");
  for (const auto& session : world.sessions) {
    for (const legion::SessionAppResult& app : session->results()) {
      ++r.offered;
      if (!app.placed) continue;
      ++r.placed;
      r.waits_s.push_back(app.wait().seconds());
    }
  }
  if (traced) {
    r.queue_hwm = kernel.profiler().queue_depth_high_water();
    r.rpc_inflight_hwm = kernel.profiler().rpc_inflight_high_water();
  }
  std::size_t records = 0, live = 0;
  for (const HostObject* host : world.mc->hosts()) {
    records += host->reservations().size();
    live += host->reservations().live_count();
  }
  const double hosts = static_cast<double>(world.mc->hosts().size());
  r.records_per_host = static_cast<double>(records) / hosts;
  r.live_per_host = static_cast<double>(live) / hosts;
  r.fingerprint = FingerprintOf(world, r);
  if (check) {
    Spans::Scope span(spans, "check.invariants", 1);
    CheckInvariants(spec, world, &r);
  }
  return rep;
}

std::string RepJson(const RepResult& r) {
  JsonList o;
  o.Num("subseed", r.subseed);
  o.Field("traced", r.traced ? "true" : "false");
  o.Num("build_s", r.build_s);
  o.Num("populate_s", r.populate_s);
  o.Num("window_wall_s", r.window_wall_s);
  o.Num("window_sim_s", r.window_sim_s);
  o.Num("events", static_cast<double>(r.events));
  o.Num("messages", static_cast<double>(r.messages));
  o.Num("wire_bytes", static_cast<double>(r.bytes));
  o.Num("rpcs", static_cast<double>(r.rpcs));
  o.Num("rpc_timeouts", static_cast<double>(r.rpc_timeouts));
  o.Num("offered", static_cast<double>(r.offered));
  o.Num("placed", static_cast<double>(r.placed));
  o.Field("waits_s", NumArray(r.waits_s));
  const CollectionCounters& c = r.collection;
  o.Num("updates_applied", static_cast<double>(c.updates_applied));
  o.Num("updates_rejected", static_cast<double>(c.updates_rejected));
  o.Num("queries", static_cast<double>(c.queries));
  o.Num("index_hits", static_cast<double>(c.index_hits));
  o.Num("planner_fallbacks", static_cast<double>(c.fallbacks));
  o.Num("compile_cache_hits", static_cast<double>(c.cache_hits));
  o.Num("compile_cache_misses", static_cast<double>(c.cache_misses));
  o.Num("delta_records", static_cast<double>(c.delta_records));
  o.Num("refresh_pulls", static_cast<double>(c.refresh_pulls));
  o.Num("stale_answers", static_cast<double>(c.stale_answers));
  o.Num("staleness_sum_ms", c.staleness_sum_ms);
  o.Num("staleness_count", static_cast<double>(c.staleness_count));
  const legion::EnactorStats& e = r.enactor;
  o.Num("reservations_requested",
        static_cast<double>(e.reservations_requested));
  o.Num("reservations_granted", static_cast<double>(e.reservations_granted));
  o.Num("retries", static_cast<double>(e.retries));
  o.Num("rereservations", static_cast<double>(e.rereservations));
  o.Num("batches_sent", static_cast<double>(e.batches_sent));
  o.Num("batched_slots", static_cast<double>(e.batched_slots));
  o.Num("requests_parked", static_cast<double>(e.requests_parked));
  o.Num("breaker_open", static_cast<double>(e.breaker_open));
  o.Num("suspects_skipped", static_cast<double>(r.suspects_skipped));
  o.Num("mappings_unplaced", static_cast<double>(r.mappings_unplaced));
  o.Num("queue_hwm", static_cast<double>(r.queue_hwm));
  o.Num("rpc_inflight_hwm", static_cast<double>(r.rpc_inflight_hwm));
  o.Num("records_per_host", r.records_per_host);
  o.Num("live_per_host", r.live_per_host);
  o.Field("fingerprint", JsonString(r.fingerprint));
  o.Num("checks", static_cast<double>(r.checks));
  JsonList violations;
  for (const std::string& v : r.violations) violations.Add(JsonString(v));
  o.Field("violations", violations.Array());
  return o.Object();
}

// ---- Layer probes (traced run only) -----------------------------------------

// Runs the kernel until `done` is set (bounded, so a lost reply cannot
// hang the probe: every RPC times out well within the bound).
void StepUntil(SimKernel& kernel, const bool& done) {
  const SimTime limit = kernel.Now() + Duration::Minutes(10);
  while (!done && !kernel.Idle() && kernel.Now() < limit) {
    kernel.RunFor(Duration::Millis(5));
  }
}

// Times layer entry points.  Each probe repeats passes until its share of
// the budget is spent (at least kMinPasses, at most kMaxPasses); a pass is
// one span around a number of calls and contributes one sample of
// microseconds per call.
class Prober {
 public:
  static constexpr int kMinPasses = 3;
  static constexpr int kMaxPasses = 300;
  static constexpr double kPassTargetS = 0.002;

  Prober(Spans* spans, double share_s) : spans_(spans), share_s_(share_s) {}

  // One pass: `body` makes `ops` calls.  Returns the pass's sample.
  template <typename Body>
  double Timed(const std::string& name, std::size_t ops, Body body) {
    double elapsed;
    {
      Spans::Scope span(spans_, name, ops);
      const double t0 = WallNow();
      body();
      elapsed = WallNow() - t0;
    }
    const double us_per_op = elapsed * 1e6 / static_cast<double>(ops);
    samples_[name].push_back(us_per_op);
    return us_per_op;
  }

  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  // Passes of `pass(i)`, each of which prepares its inputs and calls Timed.
  template <typename Pass>
  void Loop(Pass pass) {
    const double deadline = WallNow() + share_s_;
    for (int i = 0; i < kMaxPasses && (i < kMinPasses || WallNow() < deadline);
         ++i) {
      pass(i);
    }
  }

  // Passes of a repeatable `body` of `ops` calls, batched so that a pass
  // lasts about kPassTargetS.
  template <typename Body>
  void Repeat(const std::string& name, std::size_t ops, Body body) {
    const double t0 = WallNow();
    body();
    const double once = std::max(WallNow() - t0, 1e-7);
    const auto batch = static_cast<std::size_t>(
        std::clamp(kPassTargetS / once, 1.0, 100000.0));
    Loop([&](int) {
      Timed(name, ops * batch, [&] {
        for (std::size_t b = 0; b < batch; ++b) body();
      });
    });
  }

  void Count(const std::string& name, double value) { counts_[name] = value; }

  std::string Json() const {
    JsonList samples;
    for (const auto& [name, values] : samples_) {
      samples.Field(name, NumArray(values));
    }
    JsonList counts;
    for (const auto& [name, value] : counts_) counts.Num(name, value);
    JsonList out;
    out.Field("samples", samples.Object());
    out.Field("counts", counts.Object());
    return out.Object();
  }

 private:
  Spans* spans_;
  double share_s_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
};

constexpr int kProbeCount = 21;  // budget shares handed out below

void ProbeReservations(Prober& p, Metacomputer& mc, SimTime now) {
  // Copies of every host's table as it stands at the end of the run.
  std::vector<legion::ReservationTable> tables;
  for (const HostObject* host : mc.hosts()) {
    tables.push_back(host->reservations());
  }
  const Loid requester = mc.enactor()->loid();
  std::uint64_t serial = std::uint64_t{1} << 40;
  p.Loop([&](int) {
    std::vector<legion::ReservationToken> tokens;
    for (const HostObject* host : mc.hosts()) {
      legion::ReservationToken token;
      token.host = host->loid();
      token.serial = ++serial;
      token.start = now;
      token.duration = Duration::Hours(1);
      token.confirm_timeout = Duration::Minutes(5);
      token.type = legion::ReservationType::OneShotTimesharing();
      tokens.push_back(token);
    }
    p.Timed("reservation.admit_us", tables.size(), [&] {
      for (std::size_t i = 0; i < tables.size(); ++i) {
        (void)tables[i].Admit(tokens[i], requester, 1, 0.01, now);
      }
    });
    p.Timed("reservation.cancel_us", tables.size(), [&] {
      for (std::size_t i = 0; i < tables.size(); ++i) {
        (void)tables[i].Cancel(tokens[i], now);
      }
    });
  });
}

void ProbeCollection(Prober& p, const WorkloadSpec& spec, Metacomputer& mc) {
  const std::vector<HostObject*>& hosts = mc.hosts();
  // One-attribute (host_load) change per member, replayed into the
  // Collection each host pushes to.
  p.Loop([&](int pass) {
    std::vector<legion::AttributeDatabase> updates;
    for (const HostObject* host : hosts) {
      legion::AttributeDatabase attrs = host->attributes();
      attrs.Set("host_load", host->CurrentLoad() + 0.001 * (pass + 1));
      updates.push_back(std::move(attrs));
    }
    p.Timed("collection.update_us", hosts.size(), [&] {
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        CollectionFor(mc, mc.federation() != nullptr
                              ? static_cast<std::int64_t>(
                                    hosts[i]->spec().domain)
                              : -1)
            ->UpdateCollectionEntry(hosts[i]->loid(), updates[i],
                                    [](Result<bool>) {});
      }
    });
  });

  const std::string universal =
      QueryText::HostMatchQuery(UniversalImplementations());
  double records = 0.0, answers = 0.0;
  for (const std::string& policy : AllPolicies()) {
    const std::int64_t domain = PolicyDomain(spec, policy);
    const QueryOptions options = PolicyOptions(policy, domain);
    const CollectionObject* collection = CollectionFor(mc, domain);
    p.Repeat("collection.query_us." + policy, 1, [&] {
      Result<CollectionData> answer =
          collection->QueryLocal(universal, options);
      if (answer.ok()) records += static_cast<double>(answer->size());
      answers += 1.0;
    });
  }
  p.Count("collection.result_records", answers > 0 ? records / answers : 0.0);

  p.Repeat("query.compile_us", 1, [&] {
    (void)legion::query::CompiledQuery::Compile(universal);
  });

  std::vector<const CollectionObject*> journals;
  if (mc.federation() != nullptr) {
    for (const auto& [domain, sub] : mc.federation()->subs()) {
      journals.push_back(sub);
    }
  } else {
    journals.push_back(mc.collection());
  }
  p.Repeat("federation.pending_deltas_us", journals.size(), [&] {
    for (const CollectionObject* c : journals) (void)c->PendingDeltas();
  });
}

void ProbeSchedulers(Prober& p, const WorkloadSpec& spec, World& world) {
  SimKernel& kernel = *world.kernel;
  Metacomputer& mc = *world.mc;
  ClassObject* klass = mc.MakeUniversalClass(
      "probe-app", spec.app_memory_mb, spec.app_cpu_fraction);
  const legion::PlacementRequest request = {{klass->loid(),
                                             spec.app_instances}};
  double failures = 0;
  // Every Collection's wall-clock query histogram (one shared cell); the
  // traced world reads the real clock, so its sum is real microseconds.
  const legion::obs::Histogram* query_wall_us = kernel.metrics().GetHistogram(
      "collection_query_wall_us", {{"component", "collection"}}, {});
  for (const std::string& policy : AllPolicies()) {
    SchedulerObject* scheduler = MakeScheduler(
        &kernel, &mc, policy, 7, spec.app_instances);
    for (const SessionSpec& s : spec.sessions) {
      if (s.policy != policy) continue;
      if (s.domain >= 0) {
        scheduler->RouteQueries(CollectionFor(mc, s.domain)->loid(), s.domain);
      }
      if (s.max_staleness_s >= 0.0) {
        scheduler->SetMaxStaleness(Duration::Seconds(s.max_staleness_s));
      }
      break;
    }
    p.Loop([&](int) {
      bool done = false;
      const double query_us0 = query_wall_us->sum();
      const double compute_us =
          p.Timed("scheduler.compute_us." + policy, 1, [&] {
            scheduler->ComputeSchedule(
                request, [&](Result<legion::ScheduleRequestList> schedule) {
                  if (!schedule.ok() || schedule->empty()) ++failures;
                  done = true;
                });
            StepUntil(kernel, done);
          });
      // Self time: the pass minus the QueryLocal wall time the Collection
      // itself recorded while answering this pass's query.
      p.Sample("scheduler.self_us." + policy,
               compute_us - (query_wall_us->sum() - query_us0));
    });
  }

  p.Count("scheduler.probe_failures", failures);

  // A fixed 64-mapping schedule, round-robin over the hosts from a
  // rotating offset, negotiated and then cancelled.
  ClassObject* bulk = mc.MakeUniversalClass("probe-negotiate", 1, 0.02);
  constexpr std::size_t kMappings = 64;
  const std::vector<HostObject*>& hosts = mc.hosts();
  p.Loop([&](int pass) {
    legion::ScheduleRequestList schedule;
    schedule.masters.emplace_back();
    for (std::size_t i = 0; i < kMappings; ++i) {
      const std::size_t h = static_cast<std::size_t>(pass) * kMappings + i;
      const HostObject* host = hosts[h % hosts.size()];
      legion::ObjectMapping mapping;
      mapping.class_loid = bulk->loid();
      mapping.host = host->loid();
      mapping.vault = mc.vaults()[host->spec().domain]->loid();
      schedule.masters.back().mappings.push_back(mapping);
    }
    bool done = false;
    legion::ScheduleFeedback feedback;
    p.Timed("enactor.negotiate_us", kMappings, [&] {
      mc.enactor()->MakeReservations(
          schedule, [&](Result<legion::ScheduleFeedback> r) {
            if (r.ok()) feedback = *r;
            done = true;
          });
      StepUntil(kernel, done);
    });
    bool cancelled = false;
    mc.enactor()->CancelReservations(
        feedback, [&cancelled](Result<std::size_t>) { cancelled = true; });
    StepUntil(kernel, cancelled);
  });
}

void ProbeKernel(Prober& p, World& world, std::size_t queue_depth) {
  // EventQueue Schedule+Pop at the depth the traced run reached.
  legion::EventQueue queue;
  Rng rng(11);
  const std::int64_t horizon_us = 60'000'000;
  for (std::size_t i = 0; i < std::max<std::size_t>(queue_depth, 1); ++i) {
    queue.Schedule(SimTime::Zero() + Duration::Micros(rng.UniformInt(
                                         0, horizon_us)),
                   [] {});
  }
  p.Repeat("sim.queue_op_us", 1, [&] {
    legion::EventQueue::Popped ev = queue.Pop();
    queue.Schedule(ev.when + Duration::Micros(rng.UniformInt(1, horizon_us)),
                   [] {});
  });

  // AsyncCall round trips between two endpoints of one domain.
  SimKernel rpc_kernel;
  const Loid a(LoidSpace::kService, 0, 1), b(LoidSpace::kService, 0, 2);
  rpc_kernel.network().RegisterEndpoint(a, 0);
  rpc_kernel.network().RegisterEndpoint(b, 0);
  p.Repeat("sim.rpc_us", 1, [&] {
    rpc_kernel.AsyncCall<int>(
        a, b, 256, 256, Duration::Seconds(30),
        [](legion::Callback<int> reply) { reply(1); }, [](Result<int>) {},
        "probe");
    rpc_kernel.Run();
  });

  // NetworkModel::Latency on a copy of the run's network.
  legion::NetworkModel net = world.kernel->network();
  const std::vector<HostObject*>& hosts = world.mc->hosts();
  const Loid target = world.mc->collection()->loid();
  const SimTime now = world.kernel->Now();
  std::size_t next = 0;
  p.Repeat("net.latency_us", 1, [&] {
    (void)net.Latency(hosts[next++ % hosts.size()]->loid(), target, 2048, now);
  });
}

std::string RunProbes(const WorkloadSpec& spec, Rep& rep, Spans* spans,
                      double budget_s) {
  Prober p(spans, budget_s / kProbeCount);
  World& world = rep.world;
  Metacomputer& mc = *world.mc;
  SimKernel& kernel = *world.kernel;

  ProbeReservations(p, mc, kernel.Now());
  p.Repeat("host.reassess_us", mc.hosts().size(), [&] {
    for (HostObject* host : mc.hosts()) host->ReassessState();
  });
  // Quiesce: no more reassessment; let in-flight pushes land.
  for (HostObject* host : mc.hosts()) host->StopReassessment();
  kernel.RunFor(Duration::Seconds(2));

  p.Repeat("session.make_class_us", 1, [&] {
    mc.MakeUniversalClass("probe-class", 32, spec.app_cpu_fraction);
  });
  ProbeCollection(p, spec, mc);
  ProbeSchedulers(p, spec, world);
  ProbeKernel(p, world, rep.result.queue_hwm);
  return p.Json();
}

// ---- Main -------------------------------------------------------------------

constexpr int kMinSetups = 9;  // set-up samples per run, at least

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double start = WallNow();
  JsonList reps;
  JsonList setups;  // set-ups beyond those of the repetitions
  std::string probes = "null";
  if (args.trace) {
    Spans no_spans(false);
    Spans spans(true);
    reps.Add(
        RepJson(RunRep(spec, args.seed, 0, false, true, &no_spans)->result));
    std::unique_ptr<Rep> traced =
        RunRep(spec, args.seed, 0, true, true, &spans);
    reps.Add(RepJson(traced->result));
    const double budget = std::max(args.seconds - (WallNow() - start), 1.0);
    probes = RunProbes(spec, *traced, &spans, budget);
    if (!args.out_dir.empty()) {
      const std::string base = args.out_dir + "/" + spec.name + "-seed" +
                               std::to_string(args.seed);
      if (!WriteFile(base + ".spans.json", spans.ChromeJson()) ||
          !WriteFile(base + ".profile.json",
                     traced->world.kernel->profiler().ToJson())) {
        std::fprintf(stderr, "cannot write traces under %s\n",
                     args.out_dir.c_str());
        return 1;
      }
    }
  } else {
    // Every sub-seed once, then one repeat of sub-seed 0 (the same-seed
    // determinism check), then more until the time is spent.
    Spans no_spans(false);
    int i = 0;
    for (; i <= spec.subseeds || WallNow() - start < args.seconds; ++i) {
      reps.Add(RepJson(RunRep(spec, args.seed, i % spec.subseeds, false,
                              i < spec.subseeds, &no_spans)
                           ->result));
    }
    // Set-up alone, until there are enough set-up samples for a median.
    for (; i < kMinSetups; ++i) {
      World world;
      double build_s = 0.0, populate_s = 0.0;
      BuildWorld(spec, Mix(args.seed, 100 + i % spec.subseeds), false,
                 &no_spans, &world, &build_s, &populate_s);
      JsonList setup;
      setup.Num("build_s", build_s);
      setup.Num("populate_s", populate_s);
      setups.Add(setup.Object());
    }
  }
  JsonList out;
  out.Field("workload", JsonString(spec.name));
  out.Num("seed", static_cast<double>(args.seed));
  out.Field("trace", args.trace ? "true" : "false");
  out.Num("subseeds", spec.subseeds);
  out.Field("failure_basis", JsonString(spec.failure_basis));
  out.Num("peak_rss_mb", PeakRssMb());
  out.Num("elapsed_s", WallNow() - start);
  out.Field("reps", reps.Array());
  out.Field("setups", setups.Array());
  out.Field("probes", probes);
  std::printf("%s\n", out.Object().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
