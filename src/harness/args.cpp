#include "harness/args.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace asfsim {

Flag switch_flag(const char* name, const char* help, bool& out) {
  return {name, "", help, [&out](const char*) {
            out = true;
            return std::string();
          }};
}

Flag knob_flag(const knobs::Knob& k, ExperimentConfig& cfg, const char* name) {
  void* f = knobs::field(k, cfg);
  if (name == nullptr) name = k.flag;
  if (k.type == knobs::Type::kBool) {
    return switch_flag(name, k.help, *static_cast<bool*>(f));
  }
  const std::string want = knobs::expected(k);
  return {name,
          k.type == knobs::Type::kF64    ? "f"
          : k.type == knobs::Type::kEnum ? "name"
                                         : "n",
          std::string(k.help) + " (" + want + "; default " +
              knobs::show(k, f) + ")",
          [&k, f, want](const char* v) {
            return knobs::parse(k, f, v) ? std::string() : want;
          }};
}

Flag text_flag(const char* name, const char* metavar, const char* help,
               std::string& out) {
  return {name, metavar, help, [&out](const char* v) {
            out = v;
            return std::string();
          }};
}

std::string flag_help(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& f : flags) {
    std::string head = "  " + f.name;
    if (!f.metavar.empty()) head += " <" + f.metavar + ">";
    head.resize(std::max<std::size_t>(head.size() + 2, 28), ' ');
    out += head + f.help + "\n";
  }
  return out;
}

void parse_flags(int argc, char** argv, int first,
                 const std::vector<Flag>& flags, const std::string& usage) {
  const char* slash = std::strrchr(argv[0], '/');
  const char* tool = slash != nullptr ? slash + 1 : argv[0];
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(usage.c_str(), stdout);
      std::exit(0);
    }
    const auto f = std::find_if(flags.begin(), flags.end(), [&](const Flag& x) {
      return x.name == argv[i];
    });
    if (f == flags.end()) {
      std::fprintf(stderr, "%s: unknown flag %s (see --help)\n", tool,
                   argv[i]);
      std::exit(2);
    }
    const char* value = nullptr;
    if (!f->metavar.empty()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", tool, argv[i]);
        std::exit(2);
      }
      value = argv[++i];
    }
    if (const std::string want = f->set(value); !want.empty()) {
      std::fprintf(stderr, "%s: bad value '%s' for %s (%s)\n", tool, value,
                   f->name.c_str(), want.c_str());
      std::exit(2);
    }
  }
}

CliOptions parse_cli(int argc, char** argv, double default_scale) {
  CliOptions o;
  o.cfg.params.scale = default_scale;
  std::vector<Flag> flags;
  for (const knobs::Knob& k : knobs::kKnobs) {
    if (k.flag != nullptr) flags.push_back(knob_flag(k, o.cfg));
  }
  flags.push_back(text_flag("--csv", "dir", "also write CSV series into dir",
                            o.csv_dir));
  flags.push_back(count_flag(
      "--jobs", "host worker threads (0 = hardware concurrency)", o.jobs));
  flags.push_back(switch_flag(
      "--no-cache", "bypass the on-disk result cache", o.no_cache));
  flags.push_back(text_flag("--trace-dir", "dir",
                            "write one full-timeline trace file per job",
                            o.trace_dir));
  flags.push_back({"--trace-format", "fmt",
                   "trace file format: jsonl (default) or perfetto",
                   [&o](const char* v) {
                     const std::string_view fmt = v;
                     if (fmt != "jsonl" && fmt != "perfetto") {
                       return std::string("jsonl or perfetto");
                     }
                     o.trace_format = fmt == "jsonl" ? TraceFormat::kJsonl
                                                     : TraceFormat::kPerfetto;
                     return std::string();
                   }});
  parse_flags(argc, argv, 1, flags,
              std::string("usage: ") + argv[0] + " [flags]\n" +
                  flag_help(flags));
  return o;
}

}  // namespace asfsim
