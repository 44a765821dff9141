#ifndef MUXWISE_OBS_TRACE_EXPORT_H_
#define MUXWISE_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace muxwise::obs {

/**
 * Serializes the recorder to the compact MUXT binary format (explicit
 * little-endian layout, no padding) — the byte stream is identical
 * across platforms for identical traces, so digests of it are the
 * trace-determinism currency.
 */
std::vector<std::uint8_t> EncodeBinary(const TraceRecorder& recorder);

/** FNV-1a 64-bit digest of EncodeBinary(recorder). */
std::uint64_t TraceDigest(const TraceRecorder& recorder);

/**
 * Renders the recorder as Chrome/Perfetto trace_event JSON: one
 * metadata thread_name record per track, then the event stream in
 * record order. Timestamps are microseconds with nanosecond decimals;
 * output is byte-deterministic for identical traces.
 */
std::string ExportChromeJson(const TraceRecorder& recorder);

}  // namespace muxwise::obs

#endif  // MUXWISE_OBS_TRACE_EXPORT_H_
