#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

bool Tracer::WriteCsv(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* const kNames[] = {"request", "pick", "acquire"};
  std::fprintf(f, "request,kind,start_us,end_us\n");
  Clock::time_point epoch = Clock::time_point::max();
  for (const Span& s : all) epoch = std::min(epoch, s.start);
  auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const Span& s : all) {
    std::fprintf(f, "%u,%s,%.3f,%.3f\n", s.request,
                 kNames[static_cast<int>(s.kind)], us(s.start), us(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
