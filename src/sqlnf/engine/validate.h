// Scalable constraint validation (the Section 7 consistency check).
//
// The reference checkers in constraints/satisfies.h are O(n²) over all
// row pairs. For large instances we exploit that weakly similar tuples
// must agree EXACTLY on every LHS column that contains no ⊥ anywhere in
// the instance: partition rows on those columns, then compare pairs
// only within partitions. For possible (strong) semantics, only rows
// total on the LHS can participate, and strong similarity within the
// partition is plain equality — no pair loop at all.
//
// The kernels run on the shared columnar representation
// (core/encoded_table.h): rows are bucketed by their dictionary CODES
// (radix on the code value for single-column groups, FNV-mixed hashing
// for wider ones) and all within-bucket predicates are integer
// compares. This is the one production validator: the session's
// /validate (which the CLI's `validate` also runs) calls it on an
// encoding it already holds, and callers with a row-major Table encode
// it first (EncodedTable(table)). Writes do not re-validate the table — the
// catalog checks each written row against the stored ones through the
// incremental enforcer (engine/enforcer.h).
//
// One literal oracle backs it: constraints/satisfies.h (and the
// Definition-1/2 transcription in tests/reference_oracle.h), against
// which the differential, fuzz and metamorphic suites cross-check every
// verdict and witness.
//
// Every entry point takes an optional ParallelOptions: with threads > 1
// the buckets are scanned by a thread pool with first-violation
// short-circuit. Satisfaction verdicts are identical to serial; when a
// constraint is violated, WHICH violating pair is reported may differ
// (any violating pair is a correct witness).

#ifndef SQLNF_ENGINE_VALIDATE_H_
#define SQLNF_ENGINE_VALIDATE_H_

#include <optional>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/util/parallel.h"

namespace sqlnf {

// `enc` must cover every column the constraint mentions
// (enc.encoded_columns() ⊇ lhs ∪ rhs / attrs).

/// The first violating row pair of one FD, or nullopt when it holds.
std::optional<Violation> FindFdViolationEncoded(
    const EncodedTable& enc, const FunctionalDependency& fd,
    const ParallelOptions& par = {});

/// The first violating row pair of one key, or nullopt when it holds.
std::optional<Violation> FindKeyViolationEncoded(
    const EncodedTable& enc, const KeyConstraint& key,
    const ParallelOptions& par = {});

/// Whole-Σ validation on a shared encoding; `nfs` is the schema's NOT
/// NULL set (the NFS holds iff those columns are null-free here).
bool ValidateAllEncoded(const EncodedTable& enc, const AttributeSet& nfs,
                        const ConstraintSet& sigma,
                        const ParallelOptions& par = {});

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_VALIDATE_H_
