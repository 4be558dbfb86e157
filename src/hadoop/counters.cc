#include "hadoop/counters.h"

#include <sstream>

namespace scishuffle::hadoop {

Counters::Counters(const Counters& other) : values_(other.values()) {}

Counters& Counters::operator=(const Counters& other) {
  if (this != &other) {
    Values copy = other.values();
    MutexLock lock(mutex_);
    values_ = std::move(copy);
  }
  return *this;
}

Counters::Values Counters::values() const {
  MutexLock lock(mutex_);
  return values_;
}

u64& Counters::slot(std::string_view name) {
  auto it = values_.find(name);
  if (it == values_.end()) it = values_.emplace(std::string(name), 0).first;
  return it->second;
}

void Counters::add(std::string_view name, u64 delta) {
  MutexLock lock(mutex_);
  slot(name) += delta;
}

void Counters::set(std::string_view name, u64 value) {
  MutexLock lock(mutex_);
  slot(name) = value;
}

u64 Counters::get(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Counters::merge(const Counters& other) {
  const Values theirs = other.values();
  MutexLock lock(mutex_);
  for (const auto& [name, value] : theirs) slot(name) += value;
}

std::map<std::string, u64> Counters::snapshot() const {
  MutexLock lock(mutex_);
  return {values_.begin(), values_.end()};
}

std::string Counters::toString() const {
  std::ostringstream os;
  for (const auto& [name, value] : snapshot()) os << name << "=" << value << "\n";
  return os.str();
}

}  // namespace scishuffle::hadoop
