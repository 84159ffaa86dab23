// Integration tests against REAL CET binaries built by the host
// toolchain (skipped when gcc/g++ are unavailable or do not support
// -fcf-protection). These validate that the from-scratch substrates —
// ELF reader, PLT reconstruction, linear sweep, EH parsing — hold up
// outside the synthetic corpus, on genuine compiler output.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "elf/reader.hpp"
#include "eval/truth.hpp"
#include "funseeker/funseeker.hpp"
#include "test_helpers.hpp"
#include "x86/sweep.hpp"

namespace fsr {
namespace {

bool command_ok(const std::string& cmd) {
  return std::system((cmd + " > /dev/null 2>&1").c_str()) == 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

const char* kCSource = R"(
#include <stdio.h>
#include <setjmp.h>
static jmp_buf buf;
static int helper(int x) { return x * 3 + 1; }
__attribute__((noinline)) static int deep(int x) {
  if (x > 100) longjmp(buf, 1);
  return helper(x) + 2;
}
int exported_a(int x) { return deep(x) + helper(x); }
int exported_b(int x) {
  switch (x & 7) {
    case 0: return 1; case 1: return helper(x); case 2: return x * x;
    case 3: return x + 5; case 4: return x ^ 3; case 5: return x << 2;
    case 6: return x - 9; default: return 0;
  }
}
int (*fp)(int) = exported_b;
int main(int argc, char** argv) {
  (void)argv;
  if (setjmp(buf)) return 1;
  printf("%d\n", exported_a(argc) + fp(argc));
  return 0;
}
)";

const char* kCxxSource = R"(
#include <cstdio>
#include <stdexcept>
static int helper(int x) { return x * 3 + 1; }
int risky(int x) { if (x > 5) throw std::runtime_error("boom"); return helper(x); }
int guarded(int x) {
  try { return risky(x); }
  catch (const std::runtime_error&) { return -1; }
  catch (...) { return -2; }
}
int main(int argc, char**) { std::printf("%d\n", guarded(argc)); return 0; }
)";

struct RealBinary {
  elf::Image image;
  std::vector<std::uint64_t> func_symbols;       // fragments excluded
  std::vector<std::uint64_t> fragment_symbols;   // .cold/.part
  std::vector<std::uint64_t> endbr_marked;       // symbols starting with endbr
};

/// Compile `source` with `compiler flags` and load the result through
/// this project's own ELF reader. Returns nullopt when the toolchain
/// is unavailable or the output is not a CET binary.
std::optional<RealBinary> build_real(const char* source, const std::string& compiler,
                                     const std::string& flags, const char* ext) {
  if (!command_ok(compiler + " --version")) return std::nullopt;
  const test::TempDir dir;
  if (dir.path.empty()) {
    ADD_FAILURE() << "mkdtemp failed";
    return std::nullopt;
  }
  const std::string src = dir.path + "/prog" + ext;
  const std::string bin = dir.path + "/prog.bin";
  {
    std::ofstream out(src);
    out << source;
  }
  const std::string cmd =
      compiler + " -fcf-protection=full " + flags + " -o " + bin + " " + src;
  if (!command_ok(cmd)) return std::nullopt;

  RealBinary rb;
  rb.image = elf::read_elf(read_file(bin));
  for (const elf::Symbol& sym : rb.image.function_symbols()) {
    if (!rb.image.text().contains(sym.value)) continue;  // _init/_fini etc.
    if (eval::is_fragment_symbol(sym.name))
      rb.fragment_symbols.push_back(sym.value);
    else
      rb.func_symbols.push_back(sym.value);
  }
  const elf::Section& text = rb.image.text();
  const x86::SweepResult sweep = x86::linear_sweep(text.data, text.addr, x86::Mode::k64);
  for (const x86::Insn& insn : sweep.insns)
    if (insn.is_endbr() &&
        std::binary_search(rb.func_symbols.begin(), rb.func_symbols.end(), insn.addr))
      rb.endbr_marked.push_back(insn.addr);
  if (rb.endbr_marked.empty()) return std::nullopt;  // toolchain without CET
  return rb;
}

void check_real_binary(const RealBinary& rb) {
  // Analyze the STRIPPED form, like the paper.
  elf::Image stripped = rb.image;
  stripped.strip();
  const funseeker::Result r = funseeker::analyze(stripped);

  // Recall side: every endbr-marked function symbol must be found.
  for (std::uint64_t f : rb.endbr_marked)
    EXPECT_TRUE(std::binary_search(r.functions.begin(), r.functions.end(), f))
        << "missed endbr-marked function at " << std::hex << f;

  // Precision side: everything reported must be a function or fragment
  // symbol of the real binary (no catch blocks, no setjmp pads, no
  // mid-function addresses).
  for (std::uint64_t f : r.functions) {
    const bool known =
        std::binary_search(rb.func_symbols.begin(), rb.func_symbols.end(), f) ||
        std::binary_search(rb.fragment_symbols.begin(), rb.fragment_symbols.end(), f);
    EXPECT_TRUE(known) << "reported non-function address " << std::hex << f;
  }
}

TEST(RealBinaries, GccCProgramO2) {
  auto rb = build_real(kCSource, "gcc", "-O2", ".c");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable gcc on this host";
  check_real_binary(*rb);
}

TEST(RealBinaries, GccCProgramO0) {
  auto rb = build_real(kCSource, "gcc", "-O0", ".c");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable gcc on this host";
  check_real_binary(*rb);
}

TEST(RealBinaries, GccCProgramNoPie) {
  auto rb = build_real(kCSource, "gcc", "-O2 -no-pie", ".c");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable gcc on this host";
  EXPECT_EQ(rb->image.kind, elf::BinaryKind::kExec);
  check_real_binary(*rb);
}

TEST(RealBinaries, GxxExceptionProgram) {
  auto rb = build_real(kCxxSource, "g++", "-O2", ".cpp");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable g++ on this host";
  check_real_binary(*rb);
}

TEST(RealBinaries, SetjmpReturnPadIsFiltered) {
  auto rb = build_real(kCSource, "gcc", "-O2", ".c");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable gcc on this host";
  // The PLT map must resolve the longjmp/setjmp imports through the
  // real relocations...
  bool has_setjmp_import = false;
  for (const auto& e : rb->image.plt)
    if (funseeker::is_indirect_return_function(e.symbol)) has_setjmp_import = true;
  if (!has_setjmp_import)
    GTEST_SKIP() << "toolchain resolved setjmp without a PLT stub";
  // ...and the endbr after the setjmp call site must be filtered out.
  elf::Image stripped = rb->image;
  stripped.strip();
  const funseeker::Result r = funseeker::analyze(stripped);
  for (std::uint64_t removed : r.removed_indirect_return)
    EXPECT_FALSE(std::binary_search(rb->func_symbols.begin(), rb->func_symbols.end(),
                                    removed));
}

TEST(RealBinaries, PltMapFromRealRelocations) {
  auto rb = build_real(kCSource, "gcc", "-O2", ".c");
  if (!rb.has_value()) GTEST_SKIP() << "no CET-capable gcc on this host";
  EXPECT_FALSE(rb->image.plt.empty());
  EXPECT_FALSE(rb->image.dynsymbols.empty());
  for (const auto& e : rb->image.plt) {
    EXPECT_FALSE(e.symbol.empty());
    EXPECT_NE(e.addr, 0u);
  }
}

}  // namespace
}  // namespace fsr
