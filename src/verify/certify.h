// revft/verify/certify.h
//
// Fault-security certificates by delta-cone analysis. The exhaustive
// census (detect::single_fault_detection_census) PROVES fault security
// by simulating every (op, corrupted value, input) scenario — exact
// but |inputs| full suffix re-simulations per (op, value) pair. The
// certifier reaches the same verdict with ONE walk per (op, value)
// pair: it pushes the fault's *delta cone* — the XOR difference
// between the faulted and the clean run, one bit per input packed in a
// word — through the circuit's GF(2) gate algebra (the same per-kind
// ANF the dataflow engine uses), and evaluates every downstream
// observable (zero checks, rail invariants at their migrated
// memberships, embedded check bits) and the majority-decoded output
// codewords on every supplied input at once. The sparse walk touches
// only ops that read a damaged cell, and exact cancellation retires
// deltas the construction absorbs (a recovery MAJ fed a uniform
// codeword with one damaged cell emits a clean majority — the damage
// cancels on every lane, and the walk proves it without enumerating
// suffix states). The entry binding is symbolic — forms from
// verify/dataflow.h over up to 64 entry variables — and the clean
// trajectory they induce per assignment is computed once, shared by
// every scenario. The walk is exact over GF(2), so no DataflowOptions
// budget applies.
//
// The verdict per (op, value) pair is trichotomous:
//   - decided: every input's (detected, wrong) outcome is established
//     exactly — the pair contributes to `static_counts`, a
//     DetectionCensus-shaped tally;
//   - silent-harmful scenarios found along the way are recorded as
//     concrete counterexamples (fault + input) in insecure_examples;
//   - undecidable: the pair lands in `residue`, to be settled by the
//     restricted dynamic census. (With every entry form non-top the
//     packed walk decides every pair, so the residue is empty today —
//     the split is the certificate's CONTRACT, and the cross-check
//     below stays meaningful whichever side of it a pair lands on.)
//
// The contract that makes certificates trustworthy (ctest-enforced on
// the MAJ cycle and the checked 1D/2D machine programs):
//
//   full census == static_counts + restricted census over residue
//
// field-by-field on every scenario-count field. A certificate is not a
// second opinion — it is the same census, computed mostly without
// simulation, with the dynamic part shrunk to the residue.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/checker.h"
#include "local/checked_machine.h"
#include "verify/dataflow.h"

namespace revft::verify {

/// A statically discovered silent-harmful scenario: concrete proof the
/// configuration is NOT fault-secure (`input` indexes the certifier's
/// input list).
struct InsecureExample {
  FaultSpec fault;
  std::size_t input = 0;
};

/// Result of certify_single_faults. All scenario counting matches the
/// dynamic census' accounting (noise/injection): a site is one op, a
/// value scenario is one (op, value) pair, and static_counts tallies
/// (op, value, input) outcomes for DECIDED pairs only — residue pairs
/// contribute nothing here and everything to the restricted census.
struct FaultSecurityCertificate {
  std::uint64_t fault_sites = 0;       ///< ops of the checked circuit
  std::uint64_t certified_sites = 0;   ///< sites with every value decided
  std::uint64_t value_scenarios = 0;   ///< (op, value) pairs total
  std::uint64_t certified_values = 0;  ///< decided (op, value) pairs

  /// Exact classification of every decided (op, value, input)
  /// scenario; fault_sites here mirrors the full census' site count.
  detect::DetectionCensus static_counts;

  /// Undecided (op, value) pairs — the dynamic census' remaining job.
  std::vector<FaultSpec> residue;

  /// Statically proven silent-harmful scenarios (first
  /// kMaxInsecureExamples kept; static_counts.silent_harmful counts
  /// them all).
  static constexpr std::size_t kMaxInsecureExamples = 64;
  std::vector<InsecureExample> insecure_examples;

  /// No decided scenario is silent harmful. Full fault security
  /// additionally needs the residue census to agree (or an empty
  /// residue).
  bool statically_secure() const noexcept {
    return static_counts.silent_harmful == 0;
  }
  double site_coverage() const noexcept {
    return fault_sites ? static_cast<double>(certified_sites) /
                             static_cast<double>(fault_sites)
                       : 1.0;
  }
  double value_coverage() const noexcept {
    return value_scenarios ? static_cast<double>(certified_values) /
                                 static_cast<double>(value_scenarios)
                           : 1.0;
  }
};

/// Certify every single-fault scenario of a checked circuit.
///
/// `data_entry` binds each data cell to a form over at most 64 entry
/// variables; `assignments` lists the concrete variable assignments to
/// certify over (at most 64 — outcomes are tracked as per-input
/// bitmasks); `codewords` names the majority-decoded output triples
/// whose decoded values define "wrong" (the faulted majority vs the
/// clean majority, exactly the is_error the machine censuses use —
/// callers must ensure the clean run IS correct, which
/// certify_machine_program asserts dynamically).
FaultSecurityCertificate certify_single_faults(
    const detect::CheckedCircuit& checked, const std::vector<Poly>& data_entry,
    const std::vector<std::uint64_t>& assignments,
    const std::vector<std::array<std::uint32_t, 3>>& codewords);

/// A machine-program certificate bundled with the ingredients of its
/// dynamic cross-check (the same inputs/is_error the census uses).
struct MachineCertification {
  FaultSecurityCertificate certificate;
  /// Data-width inputs, index-aligned with the certifier's
  /// assignments: input i prepares logical value i on the machine's
  /// input cells.
  std::vector<StateVector> data_inputs;
  /// Expected logical outputs (simulate(logical, i)), for building
  /// the census' is_error.
  std::vector<std::uint64_t> expected;
};

/// Certify a compiled checked machine program over every logical
/// input: entry binding = variable j on logical bit j's three input
/// cells, codewords = the program's output cell triples. Asserts the
/// clean program computes `logical` before certifying (the certifier
/// judges wrongness against the clean majority). Requires
/// logical_bits <= 6 (2^6 = 64 assignments).
MachineCertification certify_machine_program(
    const CheckedMachineProgram& program, const Circuit& logical);

}  // namespace revft::verify
