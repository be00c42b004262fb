// Spans, clocks, the pin table and the per-job path.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "guest/machine.hpp"
#include "runner/job_spec.hpp"
#include "stats/serialize.hpp"
#include "trace/jsonl.hpp"
#include "trace/perfetto_sink.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace asfsim;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
/// User+sys CPU time of the calling thread, seconds.
double thread_cpu() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}
}  // namespace

double process_cpu() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

// ---- Tracer ------------------------------------------------------------------

int Tracer::begin(const char* layer, const char* name) {
  if (!on_) return -1;
  spans_.push_back(Span{layer, name, wall_now(), 0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = wall_now();
  open_ = s.parent;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].t1 - spans_[i].t0;
    if (const int p = spans_[i].parent; p >= 0) {
      self[static_cast<std::size_t>(p)] -= spans_[i].t1 - spans_[i].t0;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self[i];
  }
  return by_layer;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return;  // the span dump is a by-product; metrics do not need it
  const double t0 = spans_.empty() ? 0.0 : spans_.front().t0;
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",\n", s.name, s.layer, (s.t0 - t0) * 1e6,
                  (s.t1 - s.t0) * 1e6);
    os << buf;
  }
  os << "\n]}\n";
}

// ---- cells and pins ------------------------------------------------------------

std::uint64_t pool_seed(std::uint64_t cli_seed) {
  return kSeedPool[cli_seed % kSeedPoolSize];
}

std::string Cell::pin_key() const {
  std::ostringstream k;
  k << label << '/' << to_string(cfg.detector) << '/' << cfg.nsub << '/'
    << cfg.params.scale;
  if (cfg.sim.provenance) k << "/prov";
  if (cfg.sim.cm.stats) k << "/cm-stats";
  return k.str();
}

void PinTable::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read pin table " + path);
  std::string key, digest;
  std::uint64_t seed = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!(ls >> key >> seed >> digest) || digest.size() != 16) {
      throw std::runtime_error("malformed pin line: " + line);
    }
    pins_[key + ' ' + std::to_string(seed)] = digest;
  }
}

void PinTable::save(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write pin table " + path);
  os << "# FNV-1a 64 digests of serialize_stats() per benchmark cell and "
        "seed.\n# Regenerate: python3 perfbench/run.py --write-pins\n";
  for (const auto& [k, d] : pins_) os << k << ' ' << d << '\n';
}

std::string PinTable::find(const Cell& c) const {
  const auto it =
      pins_.find(c.pin_key() + ' ' + std::to_string(c.cfg.params.seed));
  return it == pins_.end() ? std::string{} : it->second;
}

void PinTable::put(const Cell& c, const std::string& digest_hex) {
  pins_[c.pin_key() + ' ' + std::to_string(c.cfg.params.seed)] = digest_hex;
}

void check_pin(const Cell& c, JobOutcome& o, PinTable& pins, bool writing) {
  if (!o.ok) return;
  const std::string got = hex64(o.digest);
  if (writing) {
    pins.put(c, got);
    return;
  }
  const std::string want = pins.find(c);
  if (want.empty()) {
    o.ok = false;
    o.error = "no pinned digest for " + c.pin_key() + " seed " +
              std::to_string(c.cfg.params.seed);
  } else if (want != got) {
    o.ok = false;
    o.error = "stats digest " + got + " != pinned " + want + " for " +
              c.pin_key() + " seed " + std::to_string(c.cfg.params.seed);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- the per-job path ------------------------------------------------------------

namespace {

/// Lines in the file at `path`: the JSONL sink writes one event per line.
std::uint64_t count_lines(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<char> buf(std::size_t{1} << 16);
  std::uint64_t n = 0;
  while (is.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         is.gcount() > 0) {
    n += static_cast<std::uint64_t>(
        std::count(buf.data(), buf.data() + is.gcount(), '\n'));
  }
  return n;
}

}  // namespace

JobOutcome run_cell(const Cell& c, Tracer& tr, const std::string& work_dir) {
  JobOutcome o;
  const char* wl_layer = c.workload == "oltp" ? "oltp" : "workloads";
  Scope job(tr, "bench", "job");
  try {
    SimConfig sim = c.cfg.sim;
    sim.seed = c.cfg.params.seed;  // as run_experiment does
    if (c.cfg.params.threads > sim.ncores) {
      throw std::invalid_argument("threads > ncores");
    }
    std::unique_ptr<Machine> m;
    const double t0 = wall_now();
    {
      Scope s(tr, "guest", "Machine");
      m = std::make_unique<Machine>(sim, c.cfg.detector, c.cfg.nsub);
    }
    const double machine_s = wall_now() - t0;

    std::ofstream jsonl_os, perfetto_os;
    std::unique_ptr<trace::TraceSink> jsonl, perfetto;
    const std::string jsonl_path = work_dir + "/cell.jsonl";
    const std::string perfetto_path = work_dir + "/cell.perfetto.json";
    if (c.obs.jsonl || c.obs.perfetto) {
      Scope s(tr, "trace", "open sinks");
      if (c.obs.jsonl) {
        jsonl_os.open(jsonl_path, std::ios::binary | std::ios::trunc);
        if (!jsonl_os) throw std::runtime_error("cannot open " + jsonl_path);
        jsonl = std::make_unique<trace::JsonlSink>(jsonl_os);
        m->add_trace_sink(jsonl.get());
      }
      if (c.obs.perfetto) {
        perfetto_os.open(perfetto_path, std::ios::binary | std::ios::trunc);
        if (!perfetto_os) {
          throw std::runtime_error("cannot open " + perfetto_path);
        }
        perfetto = std::make_unique<trace::PerfettoSink>(perfetto_os);
        m->add_trace_sink(perfetto.get());
      }
    }

    std::unique_ptr<Workload> wl;
    const double t1 = wall_now();
    {
      Scope s(tr, wl_layer, "make_workload+setup");
      wl = make_workload(c.workload);
      wl->setup(*m, c.cfg.params);
    }
    o.setup_s = machine_s + (wall_now() - t1);
    {
      Scope s(tr, "sim", "Machine::run");
      const double c0 = thread_cpu();
      m->run(c.cfg.max_cycles);
      o.run_cpu_s = thread_cpu() - c0;
    }
    std::string err;
    {
      Scope s(tr, wl_layer, "validate");
      err = wl->validate(*m);
    }
    if (jsonl || perfetto) {
      Scope s(tr, "trace", "close sinks");
      jsonl_os.close();
      perfetto_os.close();
      if (jsonl && tr.on()) {
        // Counted from the file so the simulation runs the same sinks as
        // an untraced pass; span.overhead_s leaves this span out.
        Scope count(tr, "bench", kCountEventsSpan);
        o.trace_events = count_lines(jsonl_path);
      }
      std::error_code ec;
      for (const std::string& p : {jsonl_path, perfetto_path}) {
        if (std::filesystem::exists(p, ec)) {
          o.trace_bytes += std::filesystem::file_size(p, ec);
          std::filesystem::remove(p, ec);
        }
      }
    }
    if (const prov::SiteRegistry* reg = m->site_registry()) {
      Scope s(tr, "prov", "site_registry");
      o.prov_sites = reg->sites().size();
    }
    {
      Scope s(tr, "stats", "serialize_stats");
      o.blob = serialize_stats(m->stats());
    }
    {
      Scope s(tr, "bench", "digest");
      o.digest = runner::fnv1a64(o.blob);
      o.stats = std::move(m->stats());
    }
    {
      Scope s(tr, "guest", "~Machine");
      wl.reset();
      m.reset();
    }
    o.ok = err.empty();
    o.error = err.empty() ? std::string{} : "validate: " + err;
  } catch (const std::exception& e) {
    o.ok = false;
    o.error = std::string("threw: ") + e.what();
  }
  return o;
}

}  // namespace perfbench
