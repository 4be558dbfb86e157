#include "service/workload.h"

#include <stdexcept>

#include "io/primitives.h"
#include "io/streams.h"

namespace scishuffle::service {

namespace {

/// The synthetic word-count job every front-end (CLI serve, distrun, tests,
/// bench) shares: `wordcount <maps> <words-per-map> [codec]`. Everything is
/// captured by value and derived from (m, i) alone, so any process rebuilds
/// byte-identical emissions.
Workload buildWordcount(const std::vector<std::string>& args) {
  if (args.size() < 2)
    throw std::invalid_argument("usage: wordcount <maps> <words-per-map> [codec]");
  int maps = 0;
  long words = 0;
  try {
    maps = std::stoi(args[0]);
    words = std::stol(args[1]);
  } catch (const std::exception&) {
    throw std::invalid_argument("wordcount: maps and words must be integers");
  }
  if (maps < 1 || words < 1)
    throw std::invalid_argument("wordcount: maps and words must be >= 1");
  Workload w;
  w.config.num_reducers = 3;
  w.config.intermediate_codec = args.size() > 2 ? args[2] : "gzipish";
  const std::vector<std::string> vocab = {"the", "windspeed", "grid", "key",
                                          "map", "reduce",    "sci", "curve"};
  for (int m = 0; m < maps; ++m) {
    w.map_tasks.push_back(hadoop::MapTask{[m, words, vocab](const hadoop::EmitFn& emit) {
      for (long i = 0; i < words; ++i) {
        const std::string& word = vocab[static_cast<std::size_t>((i * 7 + m) % 8)];
        Bytes value;
        MemorySink sink(value);
        writeI64(sink, 1);
        emit(Bytes(word.begin(), word.end()), std::move(value));
      }
    }});
  }
  w.reduce = [](const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) {
      MemorySource src(v);
      sum += readI64(src);
    }
    Bytes out;
    MemorySink sink(out);
    writeI64(sink, sum);
    emit(key, std::move(out));
  };
  return w;
}

}  // namespace

Workload buildWorkload(const std::string& name, const std::vector<std::string>& args) {
  if (name == "wordcount") return buildWordcount(args);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace scishuffle::service
