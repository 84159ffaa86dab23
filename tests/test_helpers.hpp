// Helpers for building tiny hand-crafted binaries in unit tests.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "elf/image.hpp"
#include "elf/types.hpp"
#include "x86/assembler.hpp"

namespace fsr::test {

/// Wrap assembled code into a minimal Image with a .text section.
inline elf::Image image_from_code(std::vector<std::uint8_t> code, std::uint64_t addr,
                                  elf::Machine machine,
                                  elf::BinaryKind kind = elf::BinaryKind::kExec) {
  elf::Image img;
  img.machine = machine;
  img.kind = kind;
  img.entry = addr;
  elf::Section text;
  text.name = ".text";
  text.type = elf::kShtProgbits;
  text.flags = elf::kShfAlloc | elf::kShfExecinstr;
  text.addr = addr;
  text.align = 16;
  text.data = std::move(code);
  img.sections.push_back(std::move(text));
  return img;
}

/// Add a PLT section with one CET stub per symbol plus the matching
/// resolved entries (16-byte stubs, PLT0 at the start).
inline void add_plt(elf::Image& img, std::uint64_t plt_addr,
                    const std::vector<std::string>& symbols) {
  elf::Section plt;
  plt.name = ".plt";
  plt.type = elf::kShtProgbits;
  plt.flags = elf::kShfAlloc | elf::kShfExecinstr;
  plt.addr = plt_addr;
  plt.align = 16;
  plt.data.assign(16 * (symbols.size() + 1), 0x90);
  img.sections.push_back(std::move(plt));
  for (std::size_t i = 0; i < symbols.size(); ++i)
    img.plt.push_back({plt_addr + 16 * (i + 1), symbols[i]});
}

/// A fresh mkdtemp(3) directory, removed with its contents on scope
/// exit, so test processes running side by side never share a file.
/// `path` is empty when the directory could not be created.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/fsr-test-XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace fsr::test
