//===- ProgramGen.h - Seeded MC function generator with a host oracle -*- C++ -*-==//
//
// Emits parameterless `int` MC functions built from random expression
// trees over three locals and a data-dependent loop, together with the
// value the function must return, computed on the host with 32-bit wrap
// semantics. The oracle never consults the compiler under test. Modelled
// on the property test's generator (tests/property_programs_test.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMGEN_H
#define PERFBENCH_PROGRAMGEN_H

#include <cstdint>
#include <string>

namespace perfbench {

struct GeneratedFunction {
  std::string Name;
  std::string Source;
  int32_t Expected = 0;
};

/// Generates function \p Name from \p Seed. Expressions use + - * & | ^
/// with \p FullOps, else only + and - (toyp has no integer multiply or
/// bitwise logic).
GeneratedFunction generateFunction(const std::string &Name, uint64_t Seed,
                                   bool FullOps);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMGEN_H
