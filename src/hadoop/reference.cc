#include "hadoop/reference.h"

#include <algorithm>

namespace scishuffle::hadoop {

namespace {

/// KVStream over one partition's sorted records, lending each in place.
class VectorStream final : public KVStream {
 public:
  explicit VectorStream(const std::vector<KeyValue>& records) : records_(&records) {}

  std::optional<RecordView> next() override {
    if (pos_ == records_->size()) return std::nullopt;
    const KeyValue& kv = (*records_)[pos_++];
    return RecordView{kv.key, kv.value};
  }

 private:
  const std::vector<KeyValue>* records_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::vector<KeyValue>> referenceOutputs(const JobConfig& config,
                                                    const std::vector<MapTask>& mapTasks,
                                                    const ReduceFn& reduce) {
  const auto reducers = static_cast<std::size_t>(config.num_reducers);
  std::vector<std::vector<KeyValue>> partitions(reducers);
  const EmitFn emit = [&](Bytes key, Bytes value) {
    auto routed = config.router(KeyValue{std::move(key), std::move(value)}, config.num_reducers);
    for (auto& [partition, kv] : routed) {
      partitions.at(static_cast<std::size_t>(partition)).push_back(std::move(kv));
    }
  };
  for (const MapTask& task : mapTasks) task.run(emit);

  std::vector<std::vector<KeyValue>> outputs(reducers);
  for (std::size_t r = 0; r < reducers; ++r) {
    std::vector<KeyValue>& records = partitions[r];
    std::stable_sort(records.begin(), records.end(), [](const KeyValue& a, const KeyValue& b) {
      return lexicographicLess(a.key, b.key);
    });
    VectorStream stream(records);
    Counters counters;
    const EmitFn collect = [&outputs, r](Bytes key, Bytes value) {
      outputs[r].push_back(KeyValue{std::move(key), std::move(value)});
    };
    config.grouper->run(stream, reduce, collect, counters);
  }
  return outputs;
}

}  // namespace scishuffle::hadoop
