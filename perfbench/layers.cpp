// Layered campaign benchmark: one workload, one seed, one mode.
//
// A researcher submits one scenario grid and waits for a verified cells
// file, so the load is a closed loop with one client: one grid at a time,
// in one process, at a concurrency cap of every hardware thread. Every
// phase goes through the public campaign API (run_campaign, campaign_io,
// merge_files, campaign_bench) with obs tracing off.
//
//   --trace=0  end-to-end: cold passes (grid spec -> written, verified cells
//              file), warm resume passes (all set-up, no chunk) and a
//              k-shard merge; medians over the repetitions.
//   --trace=1  per-layer: micro-probes of the primitives, then a 1-thread
//              reconstruction of the cold pass from public calls with every
//              run_trial wrapped in a timer, compared byte for byte with an
//              untraced 1-thread pass; a separate all-cores pass for the pool
//              counters; cells-file IO; and, on tiny-cells, a
//              fleet-vs-single-process run.
//
// Every timer lives in this file: nothing inside src/ is instrumented, and
// obs::enabled() stays off (turning it on moves every trial onto the
// simulator's general loop, which would measure a different program).
//
// The report is a JSON object written to --out; run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/lean_machine.h"
#include "exp/campaign.h"
#include "exp/campaign_cli.h"
#include "exp/campaign_io.h"
#include "exp/campaign_shard.h"
#include "exp/worker_pool.h"
#include "fleet/supervisor.h"
#include "harness.h"
#include "memory/sim_memory.h"
#include "noise/catalog.h"
#include "obs/obs.h"
#include "scenario/scenario.h"
#include "sched/noisy_params.h"
#include "sim/event_queue.h"
#include "sim/trial_executor.h"
#include "util/json.h"
#include "util/options.h"
#include "util/rng.h"

using namespace leancon;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Clocks and small statistics

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process (all threads).
double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << bytes;
}

/// Lines of a cells file, without their newlines.
std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t nl = bytes.find('\n', start);
    if (nl == std::string::npos) nl = bytes.size();
    lines.push_back(bytes.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// The cells-file line campaign_io writes for `r`, without its newline.
std::string line_of(const cell_result& r) {
  std::string line = campaign_io::format_line(r, false);
  line.pop_back();
  return line;
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [key, value] : obs::counter_snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads
//
// Each workload is a list of grid parts, each written as the same grid flags
// campaign_worker takes (so the fleet's workers expand the identical grid).
// Parts are expanded with the shared cost model (grid_from_options) and
// concatenated; every cell then gets its full-campaign ordinal i and the seed
// trial_seed(seed, i), exactly as campaign_grid::expand numbers a single
// grid.

struct grid_part {
  std::string scenarios;
  std::string ns;
  std::uint64_t trials = 1;
  std::uint64_t op_budget = 0;

  std::vector<std::string> flags(std::uint64_t seed) const {
    return {"--scenarios=" + scenarios, "--ns=" + ns,
            "--trials=" + std::to_string(trials),
            "--op-budget=" + std::to_string(op_budget),
            "--seed=" + std::to_string(seed)};
  }

  campaign_grid grid(std::uint64_t seed) const {
    options opts;
    add_grid_flags(opts);
    const auto args = flags(seed);
    std::vector<const char*> argv{"perfbench"};
    for (const auto& a : args) argv.push_back(a.c_str());
    if (!opts.parse(static_cast<int>(argv.size()), argv.data())) {
      throw std::invalid_argument("bad grid part " + scenarios);
    }
    return grid_from_options(opts);
  }
};

const char* const kFigure1 =
    "figure1-norm,figure1-twopoint,figure1-delayed-poisson,figure1-geom,"
    "figure1-unif,figure1-exp1";

// The cheap scenarios: each runs a trial at n <= 8 in a few microseconds,
// so a tiny-cells grid is dominated by per-cell overhead.
const char* const kCheap =
    "figure1-norm,figure1-twopoint,figure1-delayed-poisson,figure1-geom,"
    "figure1-unif,figure1-exp1,staggered-starts,random-starts,heavy-tail,"
    "combined-cutoff-4,adv-random,crash-heavy,hybrid-quantum";

std::vector<grid_part> workload_parts(const std::string& name, bool tiny) {
  if (name == "fig1") {
    // Six noise families, n = 4..1024, trials weighted op-budget style so
    // each cell costs about the same; the n = 1024 cells are stragglers.
    if (tiny) return {{kFigure1, "4,16,64", 50, 20000}};
    return {{kFigure1, "4,8,16,32,64,128,256,512,1024", 2000, 800000}};
  }
  if (name == "backends") {
    // Per family n and trials chosen so that no family takes most of the
    // CPU time (mp-abd and mutex-noise grow steeply with n).
    if (tiny) {
      return {{"crash-heavy,adv-pack,adv-burst,adv-random,combined-cutoff-1",
               "16", 20},
              {"mp-abd", "4", 4},
              {"mutex-noise", "8", 4},
              {"hybrid-quantum", "16", 20},
              {"check-lean-n3,check-abd-n3", "3", 1}};
    }
    return {{"crash-heavy,adv-pack,adv-burst,adv-random,combined-cutoff-1",
             "16,64,256", 2000, 1000000},
            {"mp-abd", "4,8", 50},
            {"mutex-noise", "8,16", 60},
            {"hybrid-quantum", "16,64,256", 2000, 800000},
            {"check-lean-n3,check-abd-n3", "3", 3}};
  }
  if (name == "tiny-cells") {
    // The small-n sweep repeated: a repeated n is another cell with its own
    // seed (and resume key), so the grid has ten thousand cells but only one
    // BENCH series per scenario.
    const auto repeat = [](const std::string& ns, int times) {
      std::string out;
      for (int i = 0; i < times; ++i) out += (i ? "," : "") + ns;
      return out;
    };
    if (tiny) return {{kCheap, repeat("2,4", 4), 2}};
    return {{kCheap, repeat("2,3,4,6,8", 160), 4}};
  }
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (fig1, backends, tiny-cells)");
}

std::vector<campaign_cell> expand_workload(const std::vector<grid_part>& parts,
                                           std::uint64_t seed) {
  std::vector<campaign_cell> cells;
  for (const auto& part : parts) {
    for (campaign_cell& cell : part.grid(seed).expand()) {
      cells.push_back(std::move(cell));
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].ordinal = i;
    cells[i].params.seed = trial_seed(seed, i);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Metrics and failures

struct metric {
  std::string unit;
  std::vector<double> values;  ///< one per repetition
};

struct report {
  std::map<std::string, metric> metrics;
  std::vector<char> failed;  ///< per cell
  std::vector<std::string> messages;
  std::map<std::string, std::string> notes;

  void add(const std::string& name, const std::string& unit, double v) {
    metric& m = metrics[name];
    m.unit = unit;
    m.values.push_back(v);
  }

  void fail(std::size_t cell, const std::string& why) {
    if (cell < failed.size()) failed[cell] = 1;
    if (messages.size() < 20) messages.push_back(why);
  }

  void fail_all(const std::string& why) {
    std::fill(failed.begin(), failed.end(), 1);
    if (messages.size() < 20) messages.push_back(why);
  }

  std::size_t failed_count() const {
    return static_cast<std::size_t>(
        std::count(failed.begin(), failed.end(), 1));
  }
};

/// Compares a written cells file against the reference lines, cell by cell.
void verify_lines(report& rep, const std::vector<std::string>& got,
                  const std::vector<std::string>& want,
                  const std::vector<campaign_cell>& cells,
                  const std::string& what) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i] != want[i]) {
      rep.fail(i, what + ": line of cell " + std::to_string(i) + " (" +
                      cells[i].label() + ") differs from the reference");
    }
  }
  if (got.size() > want.size()) {
    rep.fail_all(what + ": " + std::to_string(got.size() - want.size()) +
                 " extra lines");
  }
}

void check_violations(report& rep, const std::vector<cell_result>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double v = results[i].metrics.get("violations");
    if (!(v == 0.0)) {
      rep.fail(i, "cell " + std::to_string(i) + " (" +
                      results[i].cell.label() + ") reports violations");
    }
  }
}

/// Pinned per-block digests of the expected cells bytes for one seed.
/// File format: "seed=<s> cells=<n> block=<b>" then one hex digest a line.
struct pinned_digests {
  std::uint64_t seed = 0;
  std::size_t cells = 0;
  std::size_t block = 1;
  std::vector<std::string> digests;
};

std::vector<std::string> block_digests(const std::vector<std::string>& lines,
                                       std::size_t block) {
  std::vector<std::string> out;
  for (std::size_t b = 0; b < lines.size(); b += block) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = b; i < std::min(lines.size(), b + block); ++i) {
      h = fnv1a(lines[i] + "\n", h);
    }
    out.push_back(hex64(h));
  }
  return out;
}

std::string format_pinned(std::uint64_t seed,
                          const std::vector<std::string>& lines) {
  const std::size_t block = std::max<std::size_t>(1, (lines.size() + 255) / 256);
  std::string out = "seed=" + std::to_string(seed) +
                    " cells=" + std::to_string(lines.size()) +
                    " block=" + std::to_string(block) + "\n";
  for (const auto& d : block_digests(lines, block)) out += d + "\n";
  return out;
}

pinned_digests parse_pinned(const std::string& text) {
  pinned_digests p;
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) throw std::runtime_error("empty pinned file");
  unsigned long long seed = 0, cells = 0, block = 0;
  if (std::sscanf(lines[0].c_str(), "seed=%llu cells=%llu block=%llu", &seed,
                  &cells, &block) != 3 ||
      block == 0) {
    throw std::runtime_error("malformed pinned header");
  }
  p.seed = seed;
  p.cells = cells;
  p.block = block;
  p.digests.assign(lines.begin() + 1, lines.end());
  return p;
}

/// For the seed the digests were pinned at: every block whose bytes differ
/// fails all of its cells (the digest cannot say which one changed).
void verify_pinned(report& rep, const pinned_digests& pin,
                   const std::vector<std::string>& lines) {
  if (pin.cells != lines.size()) {
    rep.fail_all("pinned expected bytes cover " + std::to_string(pin.cells) +
                 " cells, the grid has " + std::to_string(lines.size()));
    return;
  }
  const auto got = block_digests(lines, pin.block);
  for (std::size_t b = 0; b < got.size(); ++b) {
    if (b < pin.digests.size() && got[b] == pin.digests[b]) continue;
    for (std::size_t i = b * pin.block;
         i < std::min(lines.size(), (b + 1) * pin.block); ++i) {
      rep.failed[i] = 1;
    }
    if (rep.messages.size() < 20) {
      rep.messages.push_back("cells " + std::to_string(b * pin.block) +
                             ".. differ from the pinned expected bytes");
    }
  }
}

// ---------------------------------------------------------------------------
// Settings

/// Shard files the merge phases read back (k of the k-shard merge).
constexpr std::uint64_t kShards = 4;

struct settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
  std::string worker;
  std::string pinned;
  std::string write_pinned;
  bool inject_flip = false;
};

/// The campaign's concurrency cap: every hardware thread (nproc).
unsigned all_cores() { return resolve_threads(0u); }

campaign_options pool_options(worker_pool& pool, unsigned threads,
                              campaign_io* io) {
  campaign_options o;
  o.threads = threads;
  o.pool = &pool;
  o.io = io;
  return o;
}

/// Flips one byte inside the metrics of the middle cell's line, keeping the
/// line count (a fault the byte comparison must catch).
void flip_one_byte(const std::string& path) {
  std::string bytes = read_file(path);
  const auto lines = split_lines(bytes);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < lines.size() / 2; ++i) offset += lines[i].size() + 1;
  const std::size_t mid = lines[lines.size() / 2].find("\"metrics\"");
  std::size_t pos = offset + (mid == std::string::npos ? 0 : mid + 12);
  while (pos < bytes.size() && !(bytes[pos] >= '0' && bytes[pos] <= '8')) ++pos;
  if (pos >= bytes.size()) throw std::runtime_error("no byte to flip");
  bytes[pos] = static_cast<char>(bytes[pos] + 1);
  write_file(path, bytes);
}

/// For the default seed run.py passes the pinned digests (or asks for them
/// to be written); a missing or mismatched pin file fails every cell.
void check_pinned(const settings& s, report& rep,
                  const std::vector<std::string>& reference) {
  if (!s.write_pinned.empty()) {
    write_file(s.write_pinned, format_pinned(s.seed, reference));
    return;
  }
  if (s.pinned.empty()) return;
  if (!fs::exists(s.pinned)) {
    rep.fail_all("no pinned expected bytes at " + s.pinned);
    return;
  }
  const pinned_digests pin = parse_pinned(read_file(s.pinned));
  if (pin.seed != s.seed) {
    rep.fail_all("pinned expected bytes are for seed " +
                 std::to_string(pin.seed) + ", not " + std::to_string(s.seed));
    return;
  }
  verify_pinned(rep, pin, reference);
  rep.notes["pinned_check"] = "compared";
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace=0)

void run_end_to_end(const settings& s, report& rep) {
  const auto parts = workload_parts(s.workload, s.tiny);
  const std::vector<campaign_cell> cells = expand_workload(parts, s.seed);
  const unsigned threads = all_cores();
  rep.failed.assign(cells.size(), 0);
  const double start = now_s();
  const auto elapsed = [&] { return now_s() - start; };

  // Reference: the same grid as k shard campaigns (a different subset and
  // scheduling per run), merged back into canonical order. Untimed; it also
  // warms the registry and the allocator.
  std::vector<std::string> shard_paths;
  std::uint64_t shard_bytes = 0;
  {
    worker_pool pool(threads);
    for (std::uint64_t k = 0; k < kShards; ++k) {
      shard_paths.push_back(s.work_dir + "/shard" + std::to_string(k) + ".jsonl");
      campaign_io io(shard_paths.back());
      const auto shard = filter_shard(cells, {k, kShards});
      run_campaign(shard, pool_options(pool, threads, &io));
    }
    for (const auto& p : shard_paths) shard_bytes += fs::file_size(p);
  }
  std::vector<std::string> reference = campaign_io::merge_files(shard_paths).lines;
  if (reference.size() != cells.size()) {
    rep.fail_all("merged shards hold " + std::to_string(reference.size()) +
                 " cells, the grid has " + std::to_string(cells.size()));
    return;
  }

  const std::string cold_path = s.work_dir + "/cold.jsonl";

  // Cold pass: grid spec -> pool -> expand -> run (make_workload for every
  // cell, all chunks, streaming emission) -> written file read back and
  // verified against the reference.
  const auto cold_pass = [&](bool flip) {
    const double cpu0 = cpu_now_s();
    const double t0 = now_s();
    std::vector<cell_result> results;
    {
      worker_pool pool(threads);
      const std::vector<campaign_cell> pass_cells = expand_workload(parts, s.seed);
      campaign_io io(cold_path);
      results = run_campaign(pass_cells, pool_options(pool, threads, &io));
    }
    if (flip) flip_one_byte(cold_path);
    verify_lines(rep, split_lines(read_file(cold_path)), reference, cells,
                 "cold pass");
    const double t1 = now_s();
    const double cpu1 = cpu_now_s();
    check_violations(rep, results);
    rep.add("wall_s", "s", t1 - t0);
    rep.add("cpu_s", "s", cpu1 - cpu0);
    if (flip) {
      // The flipped file cannot serve the warm passes; restore it.
      std::string bytes;
      for (const auto& l : reference) bytes += l + "\n";
      write_file(cold_path, bytes);
    }
  };

  // Warm pass: reopen the cold file with resume and answer every cell from
  // it. run_campaign still does its whole set-up (cell_hash, make_workload
  // and a resume-index lookup for every cell) but finds every cell done, so
  // no chunk runs: the pass is all set-up, from pool spawn to the return of
  // run_campaign. No pool task may run; every restored line must match
  // (checked after the timer stops).
  const auto warm_pass = [&] {
    const std::uint64_t tasks0 = counter_value("pool.tasks");
    const double t0 = now_s();
    std::vector<cell_result> results;
    {
      worker_pool pool(threads);
      const std::vector<campaign_cell> pass_cells = expand_workload(parts, s.seed);
      campaign_io io(cold_path, /*resume=*/true);
      results = run_campaign(pass_cells, pool_options(pool, threads, &io));
    }
    const double t1 = now_s();
    std::vector<std::string> restored;
    for (const auto& r : results) restored.push_back(line_of(r));
    verify_lines(rep, restored, reference, cells, "warm pass");
    const std::uint64_t tasks = counter_value("pool.tasks") - tasks0;
    if (tasks != 0) {
      rep.fail_all("warm pass ran " + std::to_string(tasks) + " pool tasks");
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].resumed) rep.fail(i, "warm pass re-ran cell " + std::to_string(i));
    }
    rep.add("setup_s", "s", t1 - t0);
  };

  // Merge: the k shard files -> merge_files -> campaign_bench -> BENCH json.
  bool merge_verified = false;
  const auto merge_pass = [&] {
    const double t0 = now_s();
    const auto merged = campaign_io::merge_files(shard_paths);
    const std::string bench_json =
        bench::to_json(bench::campaign_bench("perfbench", merged));
    const double t1 = now_s();
    if (bench_json.empty()) rep.fail_all("campaign_bench emitted nothing");
    if (!merge_verified) verify_lines(rep, merged.lines, reference, cells, "merge");
    merge_verified = true;
    rep.add("merge_s", "s", t1 - t0);
  };

  // Rounds interleave the phases, so machine noise lands on every metric
  // alike. A phase much shorter than a cold pass repeats within its round
  // until it has run for a share of the cold pass.
  const auto repeat_for = [](double seconds, const std::function<void()>& fn) {
    const double t0 = now_s();
    for (int i = 0; i < 1000 && (i == 0 || now_s() - t0 < seconds); ++i) fn();
  };
  for (int round = 0; round < 100 && (round < 3 || elapsed() < s.seconds);
       ++round) {
    const double t0 = now_s();
    cold_pass(s.inject_flip && round == 0);
    const double cold = now_s() - t0;
    repeat_for(0.5 * cold, warm_pass);
    repeat_for(0.1 * cold, merge_pass);
  }

  rep.add("peak_rss_mb", "MB", peak_rss_mb());
  rep.notes["cells"] = std::to_string(cells.size());
  rep.notes["cells_bytes"] = std::to_string(shard_bytes);
  check_pinned(s, rep, reference);
}

// ---------------------------------------------------------------------------
// Per-layer run (--trace=1)

/// Per-family accumulators over wrapped run_trial calls.
struct family_acc {
  double seconds = 0.0;
  double ops = 0.0;          ///< total_ops
  double messages = 0.0;     ///< mp-abd
  double entries = 0.0;      ///< mutex-noise
  double dispatches = 0.0;   ///< hybrid-quantum
  double states = 0.0;       ///< check: states_visited
  double transitions = 0.0;  ///< check: transitions
  std::uint64_t trials = 0;
};

double outcome_value(const trial_outcome& o, const std::string& name) {
  const auto* e = o.metrics.find(name);
  if (e == nullptr) return 0.0;
  return e->is_counter ? e->total : e->stats.mean();
}

/// The layer a scenario's trials exercise (for the per-family rates).
std::string family_of(const std::string& scenario) {
  if (scenario.rfind("figure1-", 0) == 0) return "pipelined";
  if (scenario == "crash-heavy" || scenario.rfind("adv-", 0) == 0) return "general";
  if (scenario == "combined-cutoff-1") return "backup";
  if (scenario == "mp-abd") return "msg";
  if (scenario == "mutex-noise") return "mutex";
  if (scenario == "hybrid-quantum") return "hybrid";
  if (scenario.rfind("check-", 0) == 0) return "check";
  return "other";
}

/// Self times of one traced reconstruction.
struct traced_pass {
  double wall = 0.0;
  double make = 0.0;      ///< make_workload
  double trials = 0.0;    ///< sum of wrapped run_trial
  double executor = 0.0;  ///< trial_executor::run (includes trials)
  double extract = 0.0;   ///< default_cell_metrics
  double emit = 0.0;      ///< campaign_io::emit
  std::uint64_t trial_count = 0;
  std::uint64_t chunks = 0;
  std::uint64_t cells = 0;
  double sim_ops = 0.0;
  std::map<std::string, family_acc> families;
  std::vector<double> trial_us;
  std::vector<trial_outcome> samples;  ///< outcomes for the record probe
  std::vector<std::uint64_t> violations;  ///< cells with violation trials
};

/// Rebuilds the cells of `cells` at 1 thread from public calls, timing each
/// layer from outside, and appends their lines to `path`.
traced_pass traced_reconstruction(const std::vector<campaign_cell>& cells,
                                  const std::string& path) {
  traced_pass tp;
  tp.trial_us.reserve(1 << 16);
  const trial_executor executor(executor_options{1, nullptr});
  std::uint64_t seen = 0;
  const double t_start = now_s();
  campaign_io io(path);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const campaign_cell& cell = cells[i];
    double t0 = now_s();
    const workload inner = make_workload(cell.scenario, cell.params, cell.tweak);
    double t1 = now_s();
    tp.make += t1 - t0;

    family_acc& fam = tp.families[family_of(cell.scenario)];
    workload timed = inner;
    timed.run_trial = [&](std::uint64_t trial_seed) {
      const double a = now_s();
      trial_outcome o = inner.run_trial(trial_seed);
      const double d = now_s() - a;
      const double ops = outcome_value(o, "total_ops");
      tp.trials += d;
      tp.sim_ops += ops;
      tp.trial_us.push_back(d * 1e6);
      fam.seconds += d;
      fam.ops += ops;
      fam.messages += outcome_value(o, "messages");
      fam.entries += outcome_value(o, "entries");
      fam.dispatches += outcome_value(o, "dispatches");
      fam.states += outcome_value(o, "states_visited");
      fam.transitions += outcome_value(o, "transitions");
      ++fam.trials;
      if (tp.samples.size() < 512 && (seen++ % 7) == 0) {
        tp.samples.push_back(o);
      }
      return o;
    };

    t0 = now_s();
    const trial_stats stats = executor.run(timed, cell.params.seed, cell.trials);
    t1 = now_s();
    tp.executor += t1 - t0;
    tp.chunks += trial_chunk_count(cell.trials);
    if (stats.violation_trials != 0) tp.violations.push_back(i);

    t0 = now_s();
    cell_result r;
    r.cell = cell;
    r.hash = cell_hash(cell);
    r.metrics = default_cell_metrics(stats);
    t1 = now_s();
    tp.extract += t1 - t0;

    t0 = now_s();
    io.emit(r);
    t1 = now_s();
    tp.emit += t1 - t0;
    ++tp.cells;
  }
  tp.wall = now_s() - t_start;
  for (const auto& [name, fam] : tp.families) tp.trial_count += fam.trials;
  return tp;
}

/// Adds `reps` samples of ns per call of `fn`, each a timed batch of `iters`
/// calls, scaled by 1 / `per_call` (for calls that do several steps).
template <typename Fn>
void probe_ns(report& rep, const std::string& name, std::uint64_t iters,
              Fn&& fn, double per_call = 1.0) {
  fn(iters / 10 + 1);  // warm-up
  for (int r = 0; r < 7; ++r) {
    const double t0 = now_s();
    fn(iters);
    rep.add(name, "ns",
            (now_s() - t0) * 1e9 / static_cast<double>(iters) / per_call);
  }
}

volatile double g_sink = 0.0;

void probe_primitives(const settings& s, report& rep,
                      const std::vector<trial_outcome>& samples) {
  const std::uint64_t scale = s.tiny ? 20000 : 400000;
  // Noise: increment_sampler::fill, batched as the pipelined loop draws.
  for (const auto& entry : figure1_catalog()) {
    const sim_config config = make_scenario("figure1-" + entry.key, {16, s.seed});
    const increment_sampler sampler(config.sched);
    rng gen(s.seed);
    double inc[8];
    std::uint8_t halted[8];
    probe_ns(rep, "noise.fill_ns." + entry.key, scale, [&](std::uint64_t draws) {
      double acc = 0.0;
      for (std::uint64_t k = 0; k < draws; k += 8) {
        sampler.fill(0, gen, inc, halted, 8);
        acc += inc[7];
      }
      g_sink = g_sink + acc;
    });
  }
  // Scheduler: the simulator's top() -> reschedule_top() chain.
  for (const std::size_t n : {std::size_t{16}, std::size_t{1024}}) {
    event_scheduler sched;
    sched.reset(n);
    for (std::size_t i = 0; i < n; ++i) {
      sched.prime(static_cast<int>(i), 1.0 + 0.01 * static_cast<double>(i));
    }
    sched.build();
    std::uint64_t step = 0;
    const std::string name = "sched.update_ns.n" + std::to_string(n);
    probe_ns(rep, name, scale, [&](std::uint64_t updates) {
      double acc = 0.0;
      for (std::uint64_t i = 0; i < updates; ++i, ++step) {
        const sim_event e = sched.top();
        std::uint64_t z = (e.seq + step) * 0x9e3779b97f4a7c15ULL;
        z ^= z >> 32;
        sched.reschedule_top(e.time + 0.5 + static_cast<double>(z >> 40) * 1e-7);
        acc += e.time;
      }
      g_sink = g_sink + acc;
    });
  }
  // Core + memory: a solo lean machine stepping against sim_memory.
  std::uint64_t steps_per_decision = 0;
  {
    sim_memory mem;
    lean_machine m(1);
    while (!m.done()) {
      m.apply(mem.execute(0, m.next_op()));
      ++steps_per_decision;
    }
  }
  probe_ns(rep, "core.step_ns", scale / 8, [&](std::uint64_t runs) {
    std::uint64_t acc = 0;
    for (std::uint64_t r = 0; r < runs; ++r) {
      sim_memory mem;
      lean_machine m(static_cast<int>(r & 1));
      while (!m.done()) m.apply(mem.execute(0, m.next_op()));
      acc += mem.op_count();
    }
    g_sink = g_sink + static_cast<double>(acc);
  }, static_cast<double>(steps_per_decision));
  // Stats: trial_stats::record over outcomes this workload produced.
  if (!samples.empty()) {
    probe_ns(rep, "stats.record_ns", scale / 4, [&](std::uint64_t records) {
      trial_stats stats;
      for (std::uint64_t i = 0; i < records; ++i) {
        stats.record(samples[i % samples.size()]);
      }
      g_sink = g_sink + static_cast<double>(stats.trials);
    });
  }
}

void run_per_layer(const settings& s, report& rep) {
  const auto parts = workload_parts(s.workload, s.tiny);
  const std::vector<campaign_cell> cells = expand_workload(parts, s.seed);
  const unsigned threads = all_cores();
  rep.failed.assign(cells.size(), 0);
  const double start = now_s();
  const auto elapsed = [&] { return now_s() - start; };

  // Untraced and traced 1-thread passes, alternating; the traced lines must
  // match the untraced campaign byte for byte.
  const std::string untraced_path = s.work_dir + "/untraced.jsonl";
  const std::string traced_path = s.work_dir + "/traced.jsonl";
  std::vector<traced_pass> passes;
  for (int rep_i = 0; rep_i < 50 && (rep_i < 1 || elapsed() < 0.5 * s.seconds);
       ++rep_i) {
    double untraced_wall = 0.0;
    {
      worker_pool pool(1);
      const double t0 = now_s();
      campaign_io io(untraced_path);
      const auto results = run_campaign(cells, pool_options(pool, 1, &io));
      untraced_wall = now_s() - t0;
      if (rep_i == 0) check_violations(rep, results);
    }
    traced_pass pass = traced_reconstruction(cells, traced_path);
    rep.add("trace.overhead_frac", "frac", pass.wall / untraced_wall - 1.0);
    verify_lines(rep, split_lines(read_file(traced_path)),
                 split_lines(read_file(untraced_path)), cells,
                 "traced reconstruction");
    for (const auto i : pass.violations) {
      rep.fail(i, "traced cell " + std::to_string(i) + " reports violations");
    }
    if (rep_i > 0) pass.samples.clear();
    passes.push_back(std::move(pass));
  }
  const std::vector<std::string> reference = split_lines(read_file(untraced_path));
  check_pinned(s, rep, reference);

  probe_primitives(s, rep, passes.front().samples);
  const auto record_it = rep.metrics.find("stats.record_ns");
  const double record_ns =
      record_it == rep.metrics.end() ? 0.0 : median(record_it->second.values);

  // Layer self times, one sample per traced pass.
  for (const traced_pass& tp : passes) {
    const auto per_cell_us = [&](double seconds) {
      return seconds * 1e6 / static_cast<double>(tp.cells);
    };
    rep.add("trace.coverage", "frac",
            (tp.make + tp.executor + tp.extract + tp.emit) / tp.wall);
    rep.add("sim.ops", "count", tp.sim_ops);
    rep.add("sim.trial_us.p50", "us", quantile(tp.trial_us, 0.50));
    rep.add("sim.trial_us.p99", "us", quantile(tp.trial_us, 0.99));
    rep.add("scenario.make_us", "us", per_cell_us(tp.make));
    rep.add("stats.extract_us", "us", per_cell_us(tp.extract));
    rep.add("exp.io.emit_us", "us", per_cell_us(tp.emit));
    rep.add("exp.pool.chunk_overhead_us", "us",
            (tp.executor - tp.trials -
             static_cast<double>(tp.trial_count) * record_ns * 1e-9) *
                1e6 / static_cast<double>(tp.chunks));
  }
  const double cells_bytes = static_cast<double>(fs::file_size(traced_path));
  rep.add("exp.io.bytes", "bytes", cells_bytes);

  // Per-family rates, only for the families the workload's grid runs.
  const auto add_family = [&rep](const std::string& f, const family_acc& fam) {
    const double ns = fam.seconds * 1e9;
    if (f == "pipelined") rep.add("sim.pipelined.ns_per_op", "ns", ns / fam.ops);
    if (f == "general") rep.add("sim.general.ns_per_op", "ns", ns / fam.ops);
    if (f == "backup") rep.add("backup.ns_per_op", "ns", ns / fam.ops);
    if (f == "msg") {
      rep.add("msg.ns_per_message", "ns", ns / fam.messages);
      rep.add("msg.messages", "count", fam.messages);
    }
    if (f == "mutex") {
      rep.add("mutex.ns_per_entry", "ns", ns / fam.entries);
      rep.add("mutex.entries", "count", fam.entries);
    }
    if (f == "hybrid") rep.add("hybrid.ns_per_dispatch", "ns", ns / fam.dispatches);
    if (f == "check") {
      rep.add("check.states_per_s", "1/s", fam.states / fam.seconds);
      rep.add("check.new_state_ratio", "frac", fam.states / fam.transitions);
    }
  };
  for (const traced_pass& tp : passes) {
    for (const auto& [family, fam] : tp.families) add_family(family, fam);
  }
  for (const auto& [family, fam] : passes.front().families) {
    char share[32];
    std::snprintf(share, sizeof share, "%.3f", fam.seconds / passes.front().trials);
    rep.notes["cpu_share." + family] = share;
  }

  // Pool: a separate all-cores pass, no cells file.
  for (int rep_i = 0; rep_i < 50 && (rep_i < 1 || elapsed() < 0.7 * s.seconds);
       ++rep_i) {
    worker_pool pool(threads);
    const std::uint64_t tasks0 = counter_value("pool.tasks");
    const std::uint64_t batches0 = counter_value("pool.batches");
    double busy = 0.0;
    campaign_options o = pool_options(pool, threads, nullptr);
    o.on_cell = [&busy](const cell_result& r) { busy += r.seconds; };
    const double t0 = now_s();
    const auto results = run_campaign(cells, o);
    const double wall = now_s() - t0;
    std::vector<std::string> lines;
    for (const auto& r : results) lines.push_back(line_of(r));
    verify_lines(rep, lines, reference, cells, "all-cores pass");
    rep.add("exp.pool.busy_frac", "frac",
            busy / (static_cast<double>(threads) * wall));
    rep.add("exp.pool.tasks", "count",
            static_cast<double>(counter_value("pool.tasks") - tasks0));
    rep.add("exp.pool.batches", "count",
            static_cast<double>(counter_value("pool.batches") - batches0));
  }

  // Cells IO: resume index and k-shard merge throughput.
  std::vector<std::string> shard_paths;
  {
    std::vector<std::string> shard_bytes(kShards);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      shard_bytes[shard_of(cells[i], kShards)] += reference[i] + "\n";
    }
    for (std::uint64_t k = 0; k < kShards; ++k) {
      shard_paths.push_back(s.work_dir + "/tshard" + std::to_string(k) + ".jsonl");
      write_file(shard_paths.back(), shard_bytes[k]);
    }
  }
  for (int rep_i = 0; rep_i < 200 && (rep_i < 5 || elapsed() < 0.8 * s.seconds);
       ++rep_i) {
    double t0 = now_s();
    {
      campaign_io io(traced_path, /*resume=*/true);
      if (io.loaded() != cells.size()) rep.fail_all("resume index is short");
    }
    rep.add("exp.io.resume_MBps", "MB/s", cells_bytes / 1e6 / (now_s() - t0));
    t0 = now_s();
    const auto merged = campaign_io::merge_files(shard_paths);
    rep.add("exp.io.merge_MBps", "MB/s", cells_bytes / 1e6 / (now_s() - t0));
    if (rep_i == 0) verify_lines(rep, merged.lines, reference, cells, "traced merge");
  }

  // Fleet (tiny-cells only): forked campaign_workers vs one process on a
  // subset of the grid, with shards x threads <= the concurrency cap.
  if (s.workload == "tiny-cells" && !s.worker.empty()) {
    const grid_part subset{kCheap, s.tiny ? "2,4" : "2,3,4,6,8", 4};
    const unsigned shards = threads >= 2 ? 2 : 1;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      worker_pool pool(threads);
      const double t0 = now_s();
      const auto single = run_campaign(subset.grid(s.seed).expand(),
                                       pool_options(pool, threads, nullptr));
      const double single_wall = now_s() - t0;

      fleet::fleet_config cfg;
      cfg.grid = subset.grid(s.seed);
      cfg.grid_flags = subset.flags(s.seed);
      cfg.shards = shards;
      cfg.run_dir = s.work_dir + "/fleet";
      fs::remove_all(cfg.run_dir);
      cfg.worker_argv = {s.worker};
      cfg.worker_threads = std::max(1u, threads / shards);
      cfg.verbose = false;
      const double t1 = now_s();
      const fleet::fleet_report fr = fleet::run_fleet(cfg);
      const double fleet_wall = now_s() - t1;
      if (!fr.ok || fr.merged.lines.size() != single.size()) {
        rep.fail_all("fleet run failed: " + fr.error);
        break;
      }
      for (std::size_t i = 0; i < single.size(); ++i) {
        if (line_of(single[i]) != fr.merged.lines[i]) {
          rep.fail_all("fleet line " + std::to_string(i) + " differs");
          break;
        }
      }
      rep.add("fleet.overhead_s", "s", fleet_wall - single_wall);
    }
  }

  rep.notes["cells"] = std::to_string(cells.size());
}

// ---------------------------------------------------------------------------
// Report

void write_report(const std::string& path, const settings& s, const report& rep,
                  bool obs_before, bool obs_after) {
  std::ostringstream os;
  os << "{\"workload\": ";
  json::write_string(os, s.workload);
  os << ", \"seed\": ";
  json::write_uint(os, s.seed);
  os << ", \"trace\": " << (s.trace ? 1 : 0);
  os << ", \"scale\": \"" << (s.tiny ? "tiny" : "full") << "\"";
  os << ", \"threads\": " << all_cores();
  os << ", \"attempted\": " << rep.failed.size();
  os << ", \"failed\": " << rep.failed_count();
  os << ", \"obs_enabled_before\": " << (obs_before ? "true" : "false");
  os << ", \"obs_enabled_after\": " << (obs_after ? "true" : "false");
  os << ", \"compiler\": ";
  json::write_string(os, __VERSION__);
  os << ", \"cxx_flags\": ";
  json::write_string(os, PERFBENCH_CXX_FLAGS);
  os << ", \"build_type\": ";
  json::write_string(os, PERFBENCH_BUILD_TYPE);
  os << ", \"hardware_threads\": " << std::thread::hardware_concurrency();
  os << ", \"messages\": [";
  for (std::size_t i = 0; i < rep.messages.size(); ++i) {
    if (i) os << ", ";
    json::write_string(os, rep.messages[i]);
  }
  os << "], \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : rep.notes) {
    if (!first) os << ", ";
    first = false;
    json::write_string(os, k);
    os << ": ";
    json::write_string(os, v);
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : rep.metrics) {
    if (!first) os << ", ";
    first = false;
    json::write_string(os, name);
    os << ": {\"unit\": ";
    json::write_string(os, m.unit);
    os << ", \"median\": ";
    json::write_number(os, median(m.values));
    os << ", \"q1\": ";
    json::write_number(os, quantile(m.values, 0.25));
    os << ", \"q3\": ";
    json::write_number(os, quantile(m.values, 0.75));
    os << ", \"runs\": " << m.values.size() << "}";
  }
  os << "}}\n";
  write_file(path, os.str());
}

}  // namespace

int main(int argc, char** argv) {
  options opts;
  opts.add("workload", "fig1", "fig1, backends or tiny-cells");
  opts.add("seed", "1", "workload seed");
  opts.add("seconds", "20", "measuring time");
  opts.add("trace", "0", "0 = end-to-end run, 1 = per-layer run");
  opts.add("scale", "full", "full, or tiny for the benchmark's own tests");
  opts.add("work-dir", "", "directory for the cells files (required)");
  opts.add("out", "", "report path (required)");
  opts.add("worker", "", "campaign_worker binary for the fleet measurement");
  opts.add("pinned", "", "pinned expected digests to compare against (a "
                        "missing file fails the run)");
  opts.add("write-pinned", "", "write the reference digests here");
  opts.add("inject-flip", "false",
           "flip one byte of the first cold cells file (self-test)");
  if (!opts.parse(argc, argv)) return 2;

  settings s;
  s.workload = opts.get("workload");
  s.seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  s.seconds = opts.get_double("seconds");
  s.trace = opts.get_int("trace") != 0;
  s.tiny = opts.get("scale") == "tiny";
  s.work_dir = opts.get("work-dir");
  s.worker = opts.get("worker");
  s.pinned = opts.get("pinned");
  s.write_pinned = opts.get("write-pinned");
  s.inject_flip = opts.get_bool("inject-flip");
  const std::string out = opts.get("out");
  if (s.work_dir.empty() || out.empty()) {
    std::fprintf(stderr, "layers: --work-dir and --out are required\n");
    return 2;
  }
  const bool obs_before = obs::enabled();
  if (obs_before) {
    std::fprintf(stderr, "layers: obs tracing is on (LEANCON_TRACE); the "
                         "benchmark measures the untraced program\n");
    return 2;
  }

  report rep;
  int code = 0;
  try {
    workload_parts(s.workload, s.tiny);  // validates the name
    fs::create_directories(s.work_dir);
    if (s.trace) {
      run_per_layer(s, rep);
    } else {
      run_end_to_end(s, rep);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "layers: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    rep.fail_all(std::string("run threw: ") + e.what());
    if (rep.failed.empty()) rep.failed.push_back(1);
    code = 1;
  }
  const bool obs_after = obs::enabled();
  if (obs_after) rep.fail_all("obs tracing was on after the run");
  write_report(out, s, rep, obs_before, obs_after);
  if (rep.failed_count() != 0) code = 1;
  return code;
}
