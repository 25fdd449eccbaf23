#include "host_probe.h"

#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace serverbench {

double HeapProbe::RunUs() {
  const auto start = std::chrono::steady_clock::now();
  {
    std::unordered_map<uint32_t, uint32_t> map;
    for (uint32_t i = 0; i < 4000; ++i) map[i * 2654435761u] += i;
    for (uint32_t i = 0; i < 4000; ++i) sink_ += map.count(i * 2654435761u);
  }
  {
    std::map<std::string, int> map;
    for (int i = 0; i < 1500; ++i) {
      map["symbol_" + std::to_string(i * 7919 % 10007)] += i;
    }
    for (const auto& [key, value] : map) sink_ += key.size() + value;
  }
  {
    std::vector<std::vector<int>> vectors;
    for (int i = 0; i < 3000; ++i) vectors.emplace_back(i * 37 % 61 + 1, i);
    for (const std::vector<int>& v : vectors) sink_ += v.back();
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace serverbench
