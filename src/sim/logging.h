#ifndef MUXWISE_SIM_LOGGING_H_
#define MUXWISE_SIM_LOGGING_H_

#include <string>

namespace muxwise::sim {

/**
 * Aborts the process with a diagnostic. Used for internal invariant
 * violations (the simulator itself is broken), never for user errors.
 */
[[noreturn]] void Panic(const std::string& message);

/**
 * Terminates with exit(1) and a diagnostic. Used for unusable
 * configurations supplied by the caller (bad arguments, impossible
 * topology), mirroring the fatal()/panic() split in gem5.
 */
[[noreturn]] void Fatal(const std::string& message);

}  // namespace muxwise::sim

/** Checks an invariant of the simulator itself; aborts on failure. */
#define MUX_CHECK(cond)                                                      \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::muxwise::sim::Panic(std::string("MUX_CHECK failed: ") + #cond +      \
                            " at " + __FILE__ + ":" + std::to_string(__LINE__)); \
    }                                                                        \
  } while (false)

#endif  // MUXWISE_SIM_LOGGING_H_
