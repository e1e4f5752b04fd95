//===- ProgramGen.cpp ------------------------------------------------------==//

#include "ProgramGen.h"

#include "Common.h"

#include <sstream>

namespace perfbench {

namespace {

int32_t wrapAdd(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) +
                              static_cast<uint32_t>(B));
}
int32_t wrapSub(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) -
                              static_cast<uint32_t>(B));
}
int32_t wrapMul(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) *
                              static_cast<uint32_t>(B));
}

class Gen {
public:
  Gen(uint64_t Seed, bool FullOps) : State(Seed), FullOps(FullOps) {}

  int pick(int N) {
    State = mix64(State);
    return static_cast<int>(State % static_cast<uint64_t>(N));
  }

  /// An int expression over a, b, c whose host value (given their current
  /// values) lands in \p Value.
  std::string expr(int Depth, int32_t A, int32_t B, int32_t C,
                   int32_t &Value) {
    if (Depth == 0) {
      switch (pick(4)) {
      case 0:
        Value = A;
        return "a";
      case 1:
        Value = B;
        return "b";
      case 2:
        Value = C;
        return "c";
      default:
        Value = pick(2001) - 1000;
        return Value < 0 ? "(0 - " + std::to_string(-Value) + ")"
                         : std::to_string(Value);
      }
    }
    int32_t L = 0, R = 0;
    std::string Ls = expr(Depth - 1, A, B, C, L);
    std::string Rs = expr(Depth - 1, A, B, C, R);
    // Comparisons are left out: not every machine selects a compare
    // result used as a value.
    switch (pick(FullOps ? 6 : 2)) {
    case 0:
      Value = wrapAdd(L, R);
      return "(" + Ls + " + " + Rs + ")";
    case 1:
      Value = wrapSub(L, R);
      return "(" + Ls + " - " + Rs + ")";
    case 2:
      Value = wrapMul(L, R);
      return "(" + Ls + " * " + Rs + ")";
    case 3:
      Value = L & R;
      return "(" + Ls + " & " + Rs + ")";
    case 4:
      Value = L | R;
      return "(" + Ls + " | " + Rs + ")";
    default:
      Value = L ^ R;
      return "(" + Ls + " ^ " + Rs + ")";
    }
  }

private:
  uint64_t State;
  bool FullOps;
};

} // namespace

GeneratedFunction generateFunction(const std::string &Name, uint64_t Seed,
                                   bool FullOps) {
  Gen G(Seed, FullOps);
  const int32_t A = G.pick(200) - 100;
  const int32_t B = G.pick(200) - 100;
  const int32_t C = G.pick(30) + 1;
  // After each assignment the named variable holds exactly the host value
  // the next expression was generated against.
  int32_t V1 = 0, V2 = 0, V3 = 0;
  const std::string E1 = G.expr(3, A, B, C, V1);  // c = V1
  const std::string E2 = G.expr(3, A, B, V1, V2); // b = V2
  const std::string E3 = G.expr(2, A, V2, V1, V3); // s = V3
  int32_t S = V3;
  for (int32_t I = 0; I < C; ++I)
    S = wrapAdd(S, FullOps ? S ^ I : wrapSub(S, I));

  std::ostringstream Src;
  Src << "int " << Name << "() {\n"
      << "  int a; int b; int c; int s; int i;\n"
      << "  a = " << (A < 0 ? "0 - " + std::to_string(-A) : std::to_string(A))
      << "; b = " << (B < 0 ? "0 - " + std::to_string(-B) : std::to_string(B))
      << "; c = " << C << ";\n"
      << "  c = " << E1 << ";\n"
      << "  b = " << E2 << ";\n"
      << "  s = " << E3 << ";\n"
      << "  for (i = 0; i < " << C << "; i = i + 1) s = s + (s "
      << (FullOps ? "^" : "-") << " i);\n"
      << "  return s;\n"
      << "}\n";
  return {Name, Src.str(), S};
}

} // namespace perfbench
