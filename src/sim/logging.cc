#include "sim/logging.h"

#include <cstdio>
#include <cstdlib>

namespace muxwise::sim {

void Panic(const std::string& message) {
  std::fprintf(stderr, "[PANIC] %s\n", message.c_str());
  std::abort();
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "[FATAL] %s\n", message.c_str());
  std::exit(1);
}

}  // namespace muxwise::sim
