#include "app/result_io.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace tdtcp {

// --- JSON writing -----------------------------------------------------------
// (NumberToJson/EscapeJson/ParseJson come from sim/json.)

namespace {

// Closes `f`, throwing if any write to it or the final flush failed: a full
// disk must not leave a silently truncated file for a later comparison.
void CloseChecked(std::FILE* f, const std::string& path) {
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    throw std::runtime_error("write failed: " + path);
  }
}

// Writes `text` plus a trailing newline as the whole content of `path`.
void WriteLine(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  CloseChecked(f, path);
}

void AppendMetricStats(std::string& out, const MetricStats& s) {
  out += "{\"mean\":" + NumberToJson(s.mean);
  out += ",\"stddev\":" + NumberToJson(s.stddev);
  out += ",\"ci95\":" + NumberToJson(s.ci95);
  out += ",\"n\":" + NumberToJson(static_cast<double>(s.n)) + "}";
}

}  // namespace

std::string SweepToJson(const SweepResult& sweep) {
  std::string out;
  out += "{\"schema\":\"";
  out += kSweepSchemaVersion;
  out += "\",\"jobs\":" + NumberToJson(sweep.jobs);
  out += ",\"wall_seconds\":" + NumberToJson(sweep.wall_seconds);
  out += ",\"cells\":[";
  for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
    const SweepCell& cell = sweep.cells[c];
    if (c) out += ",";
    out += "{\"label\":\"" + EscapeJson(cell.label) + "\"";
    out += ",\"variant\":\"" + EscapeJson(VariantName(cell.variant)) + "\"";
    out += ",\"schedule\":\"" + EscapeJson(cell.schedule_label) + "\"";
    out += ",\"qdisc\":\"" + EscapeJson(cell.qdisc_label) + "\"";
    out += ",\"duration_ps\":" +
           NumberToJson(static_cast<double>(cell.duration.picos()));
    out += ",\"duration_ms\":" + NumberToJson(cell.duration.millis_f());
    out += ",\"runs\":[";
    for (std::size_t r = 0; r < cell.runs.size(); ++r) {
      const SweepRun& run = cell.runs[r];
      if (r) out += ",";
      out += "{\"seed\":" + NumberToJson(static_cast<double>(run.seed));
      out += ",\"metrics\":{";
      const auto metrics = SweepMetrics();
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        if (m) out += ",";
        out += "\"" + EscapeJson(metrics[m].name) +
               "\":" + NumberToJson(metrics[m].get(run.result));
      }
      out += "}}";
    }
    out += "],\"aggregates\":{";
    for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
      if (m) out += ",";
      out += "\"" + EscapeJson(cell.metrics[m].first) + "\":";
      AppendMetricStats(out, cell.metrics[m].second);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void WriteSweepJson(const std::string& path, const SweepResult& sweep) {
  WriteLine(path, SweepToJson(sweep));
}

// --- JSON parsing -----------------------------------------------------------

namespace {

double RequireNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (!v || v->type != JsonValue::Type::kNumber) {
    throw std::runtime_error("tdtcp-sweep: missing numeric field " + key);
  }
  return v->number;
}

}  // namespace

SweepResult SweepFromJson(const std::string& json) {
  const JsonValue doc = ParseJson(json);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kSweepSchemaVersion) {
    throw std::runtime_error("tdtcp-sweep: unsupported schema");
  }

  SweepResult out;
  out.jobs = static_cast<int>(RequireNumber(doc, "jobs"));
  out.wall_seconds = RequireNumber(doc, "wall_seconds");

  const JsonValue* cells = doc.Find("cells");
  if (!cells || cells->type != JsonValue::Type::kArray) {
    throw std::runtime_error("tdtcp-sweep: missing cells");
  }
  for (const JsonValue& jc : cells->array) {
    SweepCell cell;
    if (const JsonValue* v = jc.Find("label")) cell.label = v->string;
    if (const JsonValue* v = jc.Find("variant")) {
      cell.variant = VariantFromName(v->string);
    }
    if (const JsonValue* v = jc.Find("schedule")) cell.schedule_label = v->string;
    if (const JsonValue* v = jc.Find("qdisc")) cell.qdisc_label = v->string;
    cell.duration = SimTime::Picos(
        static_cast<std::int64_t>(RequireNumber(jc, "duration_ps")));

    if (const JsonValue* runs = jc.Find("runs")) {
      for (const JsonValue& jr : runs->array) {
        SweepRun run;
        run.seed = static_cast<std::uint64_t>(RequireNumber(jr, "seed"));
        run.result.variant = cell.variant;
        run.result.duration = cell.duration;
        // Table order, not document order, so derived setters see the
        // entries they depend on; unknown (newer) metrics are ignored.
        if (const JsonValue* metrics = jr.Find("metrics")) {
          for (const SweepMetric& m : SweepMetrics()) {
            if (const JsonValue* v = metrics->Find(m.name)) {
              m.set(run.result, v->NumberOr(0));
            }
          }
        }
        cell.runs.push_back(std::move(run));
      }
    }

    if (const JsonValue* aggs = jc.Find("aggregates")) {
      // Rebuild in table order (the JSON object model is a sorted map), so
      // round-tripped cells compare equal to the writer's.
      auto take = [&](const std::string& name, const JsonValue& jstats) {
        MetricStats s;
        s.mean = RequireNumber(jstats, "mean");
        s.stddev = RequireNumber(jstats, "stddev");
        s.ci95 = RequireNumber(jstats, "ci95");
        s.n = static_cast<std::size_t>(RequireNumber(jstats, "n"));
        cell.metrics.emplace_back(name, s);
      };
      std::set<std::string> taken;
      for (const SweepMetric& m : SweepMetrics()) {
        if (const JsonValue* jstats = aggs->Find(m.name)) {
          take(m.name, *jstats);
          taken.insert(m.name);
        }
      }
      for (const auto& [name, jstats] : aggs->object) {
        if (!taken.count(name)) take(name, jstats);
      }
    }
    out.cells.push_back(std::move(cell));
  }
  return out;
}

SweepResult ReadSweepJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return SweepFromJson(text);
}

// --- microbenchmark serialization -------------------------------------------

const BenchRun* BenchReport::Find(const std::string& name) const {
  for (const BenchRun& r : runs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string BenchToJson(const BenchReport& report) {
  std::string out;
  out += "{\"schema\":\"";
  out += kBenchSchemaVersion;
  out += "\",\"context\":\"" + EscapeJson(report.context) + "\"";
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const BenchRun& r = report.runs[i];
    if (i) out += ",";
    out += "{\"name\":\"" + EscapeJson(r.name) + "\"";
    out += ",\"real_time_ns\":" + NumberToJson(r.real_time_ns);
    out += ",\"cpu_time_ns\":" + NumberToJson(r.cpu_time_ns);
    out += ",\"iterations\":" + NumberToJson(r.iterations);
    out += ",\"items_per_second\":" + NumberToJson(r.items_per_second);
    out += ",\"counters\":{";
    std::size_t c = 0;
    for (const auto& [name, value] : r.counters) {
      if (c++) out += ",";
      out += "\"" + EscapeJson(name) + "\":" + NumberToJson(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void WriteBenchJson(const std::string& path, const BenchReport& report) {
  WriteLine(path, BenchToJson(report));
}

BenchReport BenchFromJson(const std::string& json) {
  const JsonValue doc = ParseJson(json);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kBenchSchemaVersion) {
    throw std::runtime_error("tdtcp-bench: unsupported schema");
  }
  BenchReport out;
  if (const JsonValue* v = doc.Find("context")) out.context = v->string;
  const JsonValue* runs = doc.Find("runs");
  if (!runs || runs->type != JsonValue::Type::kArray) {
    throw std::runtime_error("tdtcp-bench: missing runs");
  }
  for (const JsonValue& jr : runs->array) {
    BenchRun r;
    const JsonValue* name = jr.Find("name");
    if (!name || name->type != JsonValue::Type::kString || name->string.empty()) {
      throw std::runtime_error("tdtcp-bench: run without a name");
    }
    r.name = name->string;
    r.real_time_ns = RequireNumber(jr, "real_time_ns");
    r.cpu_time_ns = RequireNumber(jr, "cpu_time_ns");
    r.iterations = RequireNumber(jr, "iterations");
    r.items_per_second = RequireNumber(jr, "items_per_second");
    if (const JsonValue* counters = jr.Find("counters")) {
      for (const auto& [cname, value] : counters->object) {
        r.counters[cname] = value.NumberOr(0);
      }
    }
    out.runs.push_back(std::move(r));
  }
  return out;
}

BenchReport ReadBenchJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return BenchFromJson(text);
}

// --- CSV --------------------------------------------------------------------

void WriteSweepCsv(const std::string& path, const SweepResult& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);

  std::fprintf(f, "label,variant,schedule,qdisc,duration_ms,seed");
  if (!sweep.cells.empty() && !sweep.cells.front().runs.empty()) {
    for (const SweepMetric& m : SweepMetrics()) std::fprintf(f, ",%s", m.name);
  }
  std::fprintf(f, "\n");

  for (const SweepCell& cell : sweep.cells) {
    for (const SweepRun& run : cell.runs) {
      std::fprintf(f, "%s,%s,%s,%s,%.6g,%llu", cell.label.c_str(),
                   VariantName(cell.variant), cell.schedule_label.c_str(),
                   cell.qdisc_label.c_str(), cell.duration.millis_f(),
                   static_cast<unsigned long long>(run.seed));
      for (const SweepMetric& m : SweepMetrics()) {
        std::fprintf(f, ",%.17g", m.get(run.result));
      }
      std::fprintf(f, "\n");
    }
    for (const char* row : {"mean", "stddev", "ci95"}) {
      std::fprintf(f, "%s,%s,%s,%s,%.6g,%s", cell.label.c_str(),
                   VariantName(cell.variant), cell.schedule_label.c_str(),
                   cell.qdisc_label.c_str(), cell.duration.millis_f(), row);
      for (const auto& [name, stats] : cell.metrics) {
        (void)name;
        const double v = std::string(row) == "mean"     ? stats.mean
                         : std::string(row) == "stddev" ? stats.stddev
                                                        : stats.ci95;
        std::fprintf(f, ",%.17g", v);
      }
      std::fprintf(f, "\n");
    }
  }
  CloseChecked(f, path);
}

}  // namespace tdtcp
