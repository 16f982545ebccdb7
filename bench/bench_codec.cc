// Codec micro-benchmarks supporting the §3.2 "Compressed" design choice:
// the ratio-oriented codec costs more CPU but compresses better, which is
// the right trade when data ships to (and is billed by) object storage.
// BM_DecompressColumn decodes real column-block payloads, the bytes the
// query path decompresses, beside the synthetic payload of BM_Decompress.
// BM_Crc32c times both CRC-32C implementations on a buffer the size of a
// large `log` column block; the read path verifies every block it decodes.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "compress/codec.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "workload/loggen.h"

namespace {

using logstore::Random;
using logstore::Slice;
using logstore::compress::Codec;
using logstore::compress::CodecType;
using logstore::compress::GetCodec;

std::string MakeLogPayload(size_t approx_bytes) {
  Random rng(42);
  std::string payload;
  while (payload.size() < approx_bytes) {
    payload += "2020-11-11 0" + std::to_string(rng.Uniform(10)) +
               ":00:00 GET /api/v1/instances/" +
               std::to_string(rng.Uniform(100)) +
               " status=200 latency=" + std::to_string(rng.Uniform(500)) +
               "ms tenant=" + std::to_string(rng.Uniform(64)) + "\n";
  }
  return payload;
}

void BM_Compress(benchmark::State& state, CodecType type) {
  const Codec* codec = GetCodec(type);
  const std::string payload = MakeLogPayload(256 * 1024);
  size_t compressed_size = 0;
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(codec->Compress(payload, &out));
    compressed_size = out.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.counters["ratio"] =
      static_cast<double>(payload.size()) /
      static_cast<double>(compressed_size == 0 ? 1 : compressed_size);
}

void BM_Decompress(benchmark::State& state, CodecType type) {
  const Codec* codec = GetCodec(type);
  const std::string payload = MakeLogPayload(256 * 1024);
  std::string compressed;
  (void)codec->Compress(payload, &compressed);
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(codec->Decompress(compressed, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}

// The compressed payloads of one column's blocks in LogBlocks built with
// the default writer options (lz-ratio, 4096 rows per block) from 4 tenants
// x 16384 generated rows over 48 h.
std::vector<std::string> ColumnPayloads(const std::string& column) {
  namespace logblock = logstore::logblock;
  std::vector<std::string> payloads;
  logstore::workload::LogGenerator gen(41);
  for (uint64_t tenant = 0; tenant < 4; ++tenant) {
    const logblock::RowBatch rows =
        gen.Generate(tenant, 16384, 0, 48ll * 3600 * 1'000'000);
    auto built = logblock::BuildLogBlock(rows, tenant);
    if (!built.ok()) abort();
    auto reader = logblock::LogBlockReader::Open(
        std::make_shared<logblock::StringSource>(built->data));
    if (!reader.ok()) abort();
    const int col = (*reader)->schema().FindColumn(column);
    if (col < 0) abort();
    const size_t num_blocks = (*reader)->meta().columns[col].blocks.size();
    for (size_t b = 0; b < num_blocks; ++b) {
      auto range = (*reader)->ColumnBlockRange(col, b);
      if (!range.ok()) abort();
      // Chunk layout: varint bitset length, bitset, fixed32 CRC, payload.
      Slice chunk(built->data.data() + range->offset, range->size);
      uint32_t bitset_len = 0, crc = 0;
      if (!logstore::GetVarint32(&chunk, &bitset_len)) abort();
      chunk.remove_prefix(bitset_len);
      if (!logstore::GetFixed32(&chunk, &crc)) abort();
      payloads.push_back(chunk.ToString());
    }
  }
  return payloads;
}

// Bytes/s are decompressed bytes; `ratio` is decompressed over compressed.
void BM_DecompressColumn(benchmark::State& state, const char* column) {
  const Codec* codec = GetCodec(CodecType::kLzRatio);
  const std::vector<std::string> payloads = ColumnPayloads(column);
  size_t compressed_bytes = 0;
  size_t decompressed_bytes = 0;
  for (const std::string& payload : payloads) {
    std::string out;
    if (!codec->Decompress(payload, &out).ok()) abort();
    compressed_bytes += payload.size();
    decompressed_bytes += out.size();
  }
  for (auto _ : state) {
    for (const std::string& payload : payloads) {
      std::string out;
      benchmark::DoNotOptimize(codec->Decompress(payload, &out));
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(decompressed_bytes));
  state.counters["blocks"] = static_cast<double>(payloads.size());
  state.counters["ratio"] = static_cast<double>(decompressed_bytes) /
                            static_cast<double>(compressed_bytes);
}

// Bytes/s over 108 KB of random bytes. The hardware case reports an error
// instead of a time on a CPU without the crc32 instruction.
void BM_Crc32c(benchmark::State& state, bool hardware) {
  if (hardware && !logstore::crc32c::HasHardware()) {
    state.SkipWithError("no SSE4.2 crc32 instruction on this CPU");
    return;
  }
  const auto extend = hardware ? logstore::crc32c::ExtendHardware
                               : logstore::crc32c::ExtendPortable;
  Random rng(108);
  std::string buffer(108 * 1024, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(0, buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buffer.size()));
}

BENCHMARK_CAPTURE(BM_Compress, none, CodecType::kNone);
BENCHMARK_CAPTURE(BM_Compress, lz_fast, CodecType::kLzFast);
BENCHMARK_CAPTURE(BM_Compress, lz_ratio, CodecType::kLzRatio);
BENCHMARK_CAPTURE(BM_Decompress, lz_fast, CodecType::kLzFast);
BENCHMARK_CAPTURE(BM_Decompress, lz_ratio, CodecType::kLzRatio);
BENCHMARK_CAPTURE(BM_DecompressColumn, log, "log");
BENCHMARK_CAPTURE(BM_DecompressColumn, ip, "ip");
BENCHMARK_CAPTURE(BM_Crc32c, hardware, true);
BENCHMARK_CAPTURE(BM_Crc32c, portable, false);

}  // namespace

BENCHMARK_MAIN();
