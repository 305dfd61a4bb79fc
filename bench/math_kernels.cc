// Kernel-layer microbenchmark: times every dispatched kernel in
// math/kernels.h against its scalar reference (kernels::ref), and checks
// the layer's core contract — dispatched and reference outputs must be
// **bitwise identical** (fixed-block accumulation makes which path ran
// unobservable in the results).
//
//   ./math_kernels          full sweep with timings and speedups
//   ./math_kernels --smoke  reduced repetitions, for CI; exits non-zero
//                           on any bitwise divergence
//
// Acceptance floor for the SIMD build (see DESIGN.md): Dot at n=64 and
// MatMul at 64x64x64 should run at >= 2x the scalar reference. The smoke
// run only gates on the bitwise columns — CI machines are too noisy to
// gate on a speed ratio.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "math/kernels.h"
#include "math/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<float> RandomVec(size_t n, kgrec::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return v;
}

/// Keeps results observable so the timed loops cannot be hoisted away.
volatile float g_sink = 0.0f;

/// Runs `body` (one "operation") repeatedly until the timed window is at
/// least `min_seconds` (after one untimed warm-up call) and returns the
/// mean seconds per operation.
double TimeOp(const std::function<void()>& body, double min_seconds) {
  body();  // warm-up
  double elapsed = 0.0;
  size_t ops = 0;
  size_t batch = 1;
  while (elapsed < min_seconds) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < batch; ++i) body();
    const auto t1 = Clock::now();
    elapsed += Seconds(t0, t1);
    ops += batch;
    if (batch < (size_t{1} << 20)) batch *= 2;
  }
  return elapsed / static_cast<double>(ops);
}

struct Row {
  std::string name;
  double dispatched_s = 0.0;
  double ref_s = 0.0;
  bool bitwise = true;
};

/// Prints one table row and records it in the bench report.
void Emit(const Row& row, kgrec::bench::Report* report) {
  std::printf("%-24s %12.1f %12.1f %8.2fx %9s\n", row.name.c_str(),
              row.dispatched_s * 1e9, row.ref_s * 1e9,
              row.ref_s / row.dispatched_s,
              row.bitwise ? "yes" : "NO — BUG");
  report->Gate(row.name + "/bitwise", row.bitwise);
  report->Timing(row.name + "/dispatched_ns", row.dispatched_s * 1e9);
  report->Timing(row.name + "/reference_ns", row.ref_s * 1e9);
  report->Timing(row.name + "/speedup", row.ref_s / row.dispatched_s);
}

bool BitwiseEqual(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const double min_seconds = smoke ? 0.01 : 0.2;

  kgrec::Rng rng(29);
  std::printf("== math/kernels dispatched (%s) vs scalar reference ==\n\n",
              kgrec::kernels::Mode());
  std::printf("%-24s %12s %12s %8s %9s\n", "kernel", "disp_ns", "ref_ns",
              "speedup", "bitwise");
  kgrec::bench::PrintRule(70);

  kgrec::bench::Report report("math_kernels", smoke);

  {  // Dot, n = 64: the ScoreItems / RowwiseDot workhorse size.
    const size_t n = 64;
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    Row row{"Dot n=64"};
    const float disp = kgrec::kernels::Dot(a.data(), b.data(), n);
    const float ref = kgrec::kernels::ref::Dot(a.data(), b.data(), n);
    row.bitwise = BitwiseEqual(&disp, &ref, 1);
    row.dispatched_s = TimeOp(
        [&] { g_sink = kgrec::kernels::Dot(a.data(), b.data(), n); },
        min_seconds);
    row.ref_s = TimeOp(
        [&] { g_sink = kgrec::kernels::ref::Dot(a.data(), b.data(), n); },
        min_seconds);
    Emit(row, &report);
  }

  {  // DotBatch: 256 scattered candidate rows, n = 64.
    const size_t n = 64, count = 256;
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> table = RandomVec(n * count, rng);
    std::vector<const float*> ptrs(count);
    for (size_t q = 0; q < count; ++q) ptrs[q] = table.data() + q * n;
    std::vector<float> out(count), out_ref(count);
    Row row{"DotBatch 256xn=64"};
    kgrec::kernels::DotBatch(a.data(), ptrs.data(), count, n, out.data());
    kgrec::kernels::ref::DotBatch(a.data(), ptrs.data(), count, n,
                                  out_ref.data());
    row.bitwise = BitwiseEqual(out.data(), out_ref.data(), count);
    row.dispatched_s = TimeOp(
        [&] {
          kgrec::kernels::DotBatch(a.data(), ptrs.data(), count, n,
                                   out.data());
        },
        min_seconds);
    row.ref_s = TimeOp(
        [&] {
          kgrec::kernels::ref::DotBatch(a.data(), ptrs.data(), count, n,
                                        out_ref.data());
        },
        min_seconds);
    Emit(row, &report);
  }

  {  // MatMul 64x64x64: the nn forward/backward workhorse.
    const size_t m = 64, k = 64, n = 64;
    const std::vector<float> a = RandomVec(m * k, rng);
    const std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> c(m * n), c_ref(m * n);
    Row row{"MatMul 64x64x64"};
    kgrec::kernels::MatMul(a.data(), b.data(), c.data(), m, k, n);
    kgrec::kernels::ref::MatMul(a.data(), b.data(), c_ref.data(), m, k, n);
    row.bitwise = BitwiseEqual(c.data(), c_ref.data(), m * n);
    row.dispatched_s = TimeOp(
        [&] { kgrec::kernels::MatMul(a.data(), b.data(), c.data(), m, k, n); },
        min_seconds);
    row.ref_s = TimeOp(
        [&] {
          kgrec::kernels::ref::MatMul(a.data(), b.data(), c_ref.data(), m, k,
                                      n);
        },
        min_seconds);
    Emit(row, &report);
  }

  {  // MatMulTransposeB 64x64x64 (the MatMul-backward dA form).
    const size_t m = 64, k = 64, n = 64;
    const std::vector<float> a = RandomVec(m * k, rng);
    const std::vector<float> b = RandomVec(n * k, rng);
    std::vector<float> c(m * n), c_ref(m * n);
    Row row{"MatMulTransposeB 64^3"};
    kgrec::kernels::MatMulTransposeB(a.data(), b.data(), c.data(), m, k, n);
    kgrec::kernels::ref::MatMulTransposeB(a.data(), b.data(), c_ref.data(), m,
                                          k, n);
    row.bitwise = BitwiseEqual(c.data(), c_ref.data(), m * n);
    row.dispatched_s = TimeOp(
        [&] {
          kgrec::kernels::MatMulTransposeB(a.data(), b.data(), c.data(), m, k,
                                           n);
        },
        min_seconds);
    row.ref_s = TimeOp(
        [&] {
          kgrec::kernels::ref::MatMulTransposeB(a.data(), b.data(),
                                                c_ref.data(), m, k, n);
        },
        min_seconds);
    Emit(row, &report);
  }

  {  // Fused CosineSimilarity, n = 256 (PathSim / clustering size).
    const size_t n = 256;
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    Row row{"CosineSimilarity n=256"};
    const float disp = kgrec::kernels::CosineSimilarity(a.data(), b.data(), n);
    const float ref =
        kgrec::kernels::ref::CosineSimilarity(a.data(), b.data(), n);
    row.bitwise = BitwiseEqual(&disp, &ref, 1);
    row.dispatched_s = TimeOp(
        [&] {
          g_sink = kgrec::kernels::CosineSimilarity(a.data(), b.data(), n);
        },
        min_seconds);
    row.ref_s = TimeOp(
        [&] {
          g_sink =
              kgrec::kernels::ref::CosineSimilarity(a.data(), b.data(), n);
        },
        min_seconds);
    Emit(row, &report);
  }

  {  // SoftmaxRows 64x64 (attention normalization shape).
    const size_t r = 64, c = 64;
    const std::vector<float> x = RandomVec(r * c, rng);
    std::vector<float> y(r * c), y_ref(r * c);
    Row row{"SoftmaxRows 64x64"};
    kgrec::kernels::SoftmaxRows(x.data(), y.data(), r, c);
    kgrec::kernels::ref::SoftmaxRows(x.data(), y_ref.data(), r, c);
    row.bitwise = BitwiseEqual(y.data(), y_ref.data(), r * c);
    row.dispatched_s = TimeOp(
        [&] { kgrec::kernels::SoftmaxRows(x.data(), y.data(), r, c); },
        min_seconds);
    row.ref_s = TimeOp(
        [&] { kgrec::kernels::ref::SoftmaxRows(x.data(), y_ref.data(), r, c); },
        min_seconds);
    Emit(row, &report);
  }

  kgrec::bench::PrintRule(70);
  std::printf(
      "\nContract: every bitwise column must read 'yes' — the dispatched\n"
      "kernels and the scalar reference perform the identical IEEE op\n"
      "sequence per output (the fixed-block accumulation contract), so\n"
      "KGREC_SIMD=auto and KGREC_SIMD=off builds produce identical models.\n");
  return report.Finish();
}
