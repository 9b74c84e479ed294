// Kernel probes: the host time of one call into each layer's hot function,
// timed from outside the library on inputs drawn from the workload seed.
// Each probe runs its loop once untimed (warm caches, fault in pages), then
// reports the median ns per call over several timed batches.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench.h"
#include "common/crc32.h"
#include "common/random.h"
#include "flash/flash_device.h"
#include "ftl/spare_codec.h"
#include "pdl/differential.h"

namespace flashbench {
namespace {

using flashdb::ByteBuffer;
using flashdb::Random;

constexpr int kBatches = 9;

/// Median ns per call of `body(i)` over kBatches batches of `iters` calls,
/// after one untimed warm-up batch.
template <typename Body>
double TimePerCall(uint32_t iters, Body&& body) {
  for (uint32_t i = 0; i < iters; ++i) body(i);
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (uint32_t i = 0; i < iters; ++i) body(i);
    per_call.push_back(static_cast<double>(NowNs() - t0) / iters);
  }
  return Median(per_call);
}

/// Keeps probe results observable so the timed calls are not elided.
volatile uint64_t g_sink = 0;

/// Folds a probed call's Status into `ok` and its output into the sink.
void Consume(const flashdb::Status& st, uint64_t value, bool* ok) {
  *ok = *ok && st.ok();
  g_sink = g_sink + value;
}

}  // namespace

void RunKernelProbes(const ProbeSettings& s, Report* report) {
  Random rng(s.seed ^ 0x70726F6265ULL);
  bool ok = true;
  const uint32_t iters = s.tiny ? 64 : 2048;

  // Page pairs with the workload's change ratio: one contiguous region of
  // pct_changed percent of the page rewritten, as UpdateDriver draws it.
  constexpr uint32_t kPairs = 64;
  const uint32_t len = std::clamp<uint32_t>(
      static_cast<uint32_t>(std::lround(s.pct_changed / 100.0 * s.page_size)),
      1, s.page_size);
  std::vector<ByteBuffer> base(kPairs, ByteBuffer(s.page_size));
  std::vector<ByteBuffer> updated(kPairs);
  for (uint32_t p = 0; p < kPairs; ++p) {
    rng.Fill(base[p]);
    updated[p] = base[p];
    const auto off =
        static_cast<uint32_t>(rng.Uniform(s.page_size - len + 1));
    rng.Fill(flashdb::MutBytes(updated[p].data() + off, len));
  }

  report->Set("crc.page_ns", TimePerCall(iters, [&](uint32_t i) {
                g_sink = g_sink + flashdb::Crc32c(base[i % kPairs]);
              }));

  report->Set("pdl.compute_diff_ns", TimePerCall(iters, [&](uint32_t i) {
                const auto d = flashdb::pdl::ComputeDifferential(
                    base[i % kPairs], updated[i % kPairs], i, i);
                g_sink = g_sink + d.payload_size();
              }));

  std::vector<flashdb::pdl::Differential> diffs;
  std::vector<ByteBuffer> targets = base;
  for (uint32_t p = 0; p < kPairs; ++p) {
    diffs.push_back(
        flashdb::pdl::ComputeDifferential(base[p], updated[p], p, p));
  }
  // Applying a differential is idempotent, so each target page can take the
  // same differential again and again.
  report->Set("pdl.apply_diff_ns", TimePerCall(iters, [&](uint32_t i) {
                Consume(diffs[i % kPairs].ApplyTo(targets[i % kPairs]),
                        targets[i % kPairs][0], &ok);
              }));

  // Flash probes on a scratch chip of its own: block 0 holds programmed,
  // CRC-stamped data pages for the read probes; the program probe fills the
  // other blocks page by page and erases them, untimed, between batches.
  flashdb::flash::FlashConfig cfg = flashdb::flash::FlashConfig::Small(4);
  cfg.geometry.data_size = s.page_size;
  flashdb::flash::FlashDevice dev(cfg);
  const uint32_t ppb = cfg.geometry.pages_per_block;
  std::vector<ByteBuffer> spares(ppb,
                                 ByteBuffer(cfg.geometry.spare_size, 0xFF));
  for (uint32_t p = 0; p < ppb; ++p) {
    flashdb::ftl::EncodeSpare(spares[p], flashdb::ftl::PageType::kData, p,
                              p + 1, base[p % kPairs]);
    Consume(dev.ProgramPage(dev.AddrOf(0, p), base[p % kPairs], spares[p]),
            0, &ok);
  }
  ByteBuffer data(s.page_size);
  ByteBuffer spare(cfg.geometry.spare_size);
  report->Set("flash.read_page_ns", TimePerCall(iters, [&](uint32_t i) {
                Consume(dev.ReadPage(dev.AddrOf(0, i % ppb), data, spare),
                        data[0], &ok);
              }));
  report->Set("flash.verified_read_ns", TimePerCall(iters, [&](uint32_t i) {
                Consume(flashdb::ftl::ReadVerifiedPage(
                            &dev, dev.AddrOf(0, i % ppb), data),
                        data[0], &ok);
              }));

  // Program: time a full block of sequential page programs per batch.
  std::vector<double> per_call;
  const int batches = s.tiny ? 3 : 3 * kBatches;
  for (int b = -1; b < batches; ++b) {  // batch -1 is the warm-up
    const uint32_t block = 1 + static_cast<uint32_t>(b + 1) % 3;
    Consume(dev.EraseBlock(block), 0, &ok);
    const uint64_t t0 = NowNs();
    for (uint32_t p = 0; p < ppb; ++p) {
      Consume(
          dev.ProgramPage(dev.AddrOf(block, p), base[p % kPairs], spares[p]),
          0, &ok);
    }
    if (b >= 0) per_call.push_back(static_cast<double>(NowNs() - t0) / ppb);
  }
  report->Set("flash.program_page_ns", Median(per_call));
  if (!ok) report->Fail("kernel probe: a probed call returned an error");
}

}  // namespace flashbench
