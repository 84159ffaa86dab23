// .note.gnu.property tests: CET/BTI feature advertisement, roundtrip,
// detection on generated and real binaries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "elf/gnu_property.hpp"
#include "elf/reader.hpp"
#include "synth/corpus.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fsr::elf {
namespace {

TEST(GnuProperty, RoundtripX86) {
  const auto bytes = build_gnu_property(Machine::kX8664, kFeatureX86Ibt | kFeatureX86Shstk);
  const auto bits = parse_gnu_property(bytes, Machine::kX8664);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(*bits, kFeatureX86Ibt | kFeatureX86Shstk);
}

TEST(GnuProperty, RoundtripArm64) {
  const auto bytes = build_gnu_property(Machine::kArm64, kFeatureArmBti);
  const auto bits = parse_gnu_property(bytes, Machine::kArm64);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(*bits, kFeatureArmBti);
}

TEST(GnuProperty, Roundtrip32Bit) {
  const auto bytes = build_gnu_property(Machine::kX86, kFeatureX86Ibt);
  const auto bits = parse_gnu_property(bytes, Machine::kX86);
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(*bits, kFeatureX86Ibt);
}

TEST(GnuProperty, EmptyAndForeignNotes) {
  EXPECT_FALSE(parse_gnu_property({}, Machine::kX8664).has_value());
  // A non-GNU note is skipped without error.
  std::vector<std::uint8_t> note = {
      5, 0, 0, 0,      // namesz "ABCD\0"
      0, 0, 0, 0,      // descsz
      1, 0, 0, 0,      // type
      'A', 'B', 'C', 'D', 0, 0, 0, 0,  // name + pad
  };
  EXPECT_FALSE(parse_gnu_property(note, Machine::kX8664).has_value());
}

TEST(GnuProperty, GeneratedBinariesAdvertiseFeatures) {
  synth::BinaryConfig cfg;
  const synth::DatasetEntry x86 = synth::make_binary(cfg);
  EXPECT_TRUE(has_branch_tracking(x86.image));
  const auto bits = feature_bits(x86.image);
  ASSERT_TRUE(bits.has_value());
  EXPECT_TRUE(*bits & kFeatureX86Ibt);
  EXPECT_TRUE(*bits & kFeatureX86Shstk);  // -fcf-protection=full => SS too

  cfg.machine = Machine::kArm64;
  const synth::DatasetEntry arm = synth::make_binary(cfg);
  EXPECT_TRUE(has_branch_tracking(arm.image));

  // The note survives serialization + strip.
  const Image stripped = read_elf(x86.stripped_bytes());
  EXPECT_TRUE(has_branch_tracking(stripped));
}

TEST(GnuProperty, AbsentNoteMeansNoTracking) {
  Image img;
  img.machine = Machine::kX8664;
  EXPECT_FALSE(has_branch_tracking(img));
  EXPECT_FALSE(feature_bits(img).has_value());
}

TEST(GnuProperty, RealBinaryNoteWhenAvailable) {
  if (std::system("gcc --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no gcc on this host";
  const test::TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string src = dir.path + "/prop.c";
  const std::string bin = dir.path + "/prop";
  std::ofstream(src) << "int main(){return 0;}";
  if (std::system(("gcc -fcf-protection=full -o " + bin + " " + src +
                   " > /dev/null 2>&1").c_str()) != 0)
    GTEST_SKIP() << "gcc lacks -fcf-protection";
  std::ifstream in(bin, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  const Image img = read_elf(bytes);
  // The note must parse without throwing. Whether FEATURE_1_AND
  // survives depends on the distro's CRT objects: the linker ANDs the
  // feature across all inputs, so a non-CET crt1.o erases it (which is
  // exactly why the paper compiled its own corpus end to end).
  const Section* note = img.find_section(".note.gnu.property");
  if (note == nullptr) GTEST_SKIP() << "toolchain emits no property note";
  EXPECT_NO_THROW((void)parse_gnu_property(note->data, img.machine));
  (void)has_branch_tracking(img);  // must be callable either way
}

}  // namespace
}  // namespace fsr::elf
