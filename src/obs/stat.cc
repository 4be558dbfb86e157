#include "obs/stat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/sampler.h"

namespace scishuffle::obs {

namespace {

// ---- Rendering helpers -----------------------------------------------------

bool isByteGauge(const std::string& name) {
  return name.size() >= 6 && name.compare(name.size() - 6, 6, "_bytes") == 0;
}

std::string formatValue(const std::string& gaugeName, double v) {
  char buf[48];
  if (isByteGauge(gaugeName)) {
    static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (v >= 1024.0 && unit < 4) {
      v /= 1024.0;
      ++unit;
    }
    std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", v, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

MetricsSummary summarizeMetricsJsonl(std::istream& in) {
  MetricsSummary summary;
  std::map<std::string, std::vector<u64>> sampleValues;
  std::map<std::string, u64> sums;
  bool sawTs = false;

  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // A line is read whole before any of it is counted: one that fails to
    // parse, or has a field of the wrong type, is skipped entirely.
    std::string type;
    u64 ts = 0;
    std::vector<std::pair<std::string, u64>> gauges;
    std::string eventName;
    try {
      const JsonValue v = parseJson(line);
      const JsonValue& typeField = v.at("type");
      checkFormat(typeField.kind == JsonValue::Kind::kString, "metrics line type is not a string");
      type = typeField.string;
      if (const JsonValue* tsField = v.find("ts_us")) ts = tsField->asU64();
      if (type == "header") {
        if (const JsonValue* interval = v.find("interval_ms")) {
          summary.interval_ms = interval->asU64();
        }
        if (const JsonValue* schema = v.find("schema")) summary.schema = schema->string;
        continue;
      }
      if (type == "sample") {
        const JsonValue& gaugeField = v.at("gauges");
        checkFormat(gaugeField.kind == JsonValue::Kind::kObject, "sample gauges are not an object");
        for (const auto& [name, value] : gaugeField.object) {
          gauges.emplace_back(name, value.asU64());
        }
      } else if (type == "event") {
        const JsonValue& nameField = v.at("name");
        checkFormat(nameField.kind == JsonValue::Kind::kString, "event name is not a string");
        eventName = nameField.string;
      }
    } catch (const FormatError&) {
      ++summary.skipped_lines;
      continue;
    }
    if (type == "sample") {
      ++summary.samples;
      for (const auto& [name, value] : gauges) {
        sampleValues[name].push_back(value);
        sums[name] += value;
        GaugeTimeline& t = summary.gauges[name];
        if (sampleValues[name].size() == 1 || value > t.peak) {
          t.peak = value;
          t.peak_ts_us = ts;
        }
      }
    } else if (type == "event") {
      ++summary.events;
      ++summary.event_counts[eventName];
    } else if (type == "summary") {
      continue;  // recomputed from the raw lines, never trusted
    } else {
      ++summary.skipped_lines;
      continue;
    }
    if (!sawTs) {
      summary.first_ts_us = ts;
      sawTs = true;
    }
    summary.last_ts_us = std::max(summary.last_ts_us, ts);
  }

  for (auto& [name, values] : sampleValues) {
    GaugeTimeline& t = summary.gauges[name];
    t.samples = values.size();
    t.mean = static_cast<double>(sums[name]) / static_cast<double>(values.size());
    std::sort(values.begin(), values.end());
    // Nearest-rank p95: ceil(0.95 * n), 1-based.
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(values.size())));
    t.p95 = values[std::max<std::size_t>(rank, 1) - 1];
  }
  return summary;
}

MetricsSummary summarizeMetricsFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("stat: cannot open metrics file " + path.string());
  }
  return summarizeMetricsJsonl(in);
}

void renderMetricsSummary(const MetricsSummary& summary, std::ostream& out) {
  const double spanS =
      static_cast<double>(summary.last_ts_us - std::min(summary.first_ts_us, summary.last_ts_us)) /
      1e6;
  char spanBuf[32];
  std::snprintf(spanBuf, sizeof(spanBuf), "%.3f", spanS);
  out << "metrics: " << (summary.schema.empty() ? "(no header line)" : summary.schema)
      << "  interval " << summary.interval_ms << " ms  " << summary.samples << " samples  "
      << summary.events << " events  span " << spanBuf << " s\n";
  if (summary.skipped_lines > 0) {
    out << "warning: " << summary.skipped_lines << " unparseable line(s) skipped\n";
  }

  // Headline: the question `stat` exists to answer without a trace UI.
  const auto rss = summary.gauges.find(gauge::kProcessRssBytes);
  if (rss != summary.gauges.end()) {
    const double toPeakS =
        static_cast<double>(rss->second.peak_ts_us -
                            std::min(summary.first_ts_us, rss->second.peak_ts_us)) /
        1e6;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", toPeakS);
    out << "peak RSS " << formatValue(gauge::kProcessRssBytes, static_cast<double>(rss->second.peak))
        << " at +" << buf << " s\n";
  }

  if (!summary.gauges.empty()) {
    out << "\n";
    char header[160];
    std::snprintf(header, sizeof(header), "%-36s %12s %9s %12s %12s\n", "gauge", "peak", "@ s",
                  "mean", "p95");
    out << header;
    for (const auto& [name, t] : summary.gauges) {
      const double atS =
          static_cast<double>(t.peak_ts_us - std::min(summary.first_ts_us, t.peak_ts_us)) / 1e6;
      char row[256];
      std::snprintf(row, sizeof(row), "%-36s %12s %9.3f %12s %12s\n", name.c_str(),
                    formatValue(name, static_cast<double>(t.peak)).c_str(), atS,
                    formatValue(name, t.mean).c_str(),
                    formatValue(name, static_cast<double>(t.p95)).c_str());
      out << row;
    }
  }

  if (!summary.event_counts.empty()) {
    out << "\nevents:\n";
    for (const auto& [name, count] : summary.event_counts) {
      char row[128];
      std::snprintf(row, sizeof(row), "  %-34s %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      out << row;
    }
  }
}

}  // namespace scishuffle::obs
