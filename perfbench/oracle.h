// Independent correctness oracle: textbook definitions evaluated by
// exhaustive search over the generated inputs, sharing no code with the
// library's index, filters or similarity kernels. Runs outside every
// timed phase.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "geo/mbr.h"

namespace perfbench {

/// Discrete Fréchet distance by the textbook dynamic program over the
/// full coupling table (Eiter & Mannila), Euclidean point distance.
double OracleFrechet(const std::vector<trass::geo::Point>& a,
                     const std::vector<trass::geo::Point>& b);

/// Plain closed-box containment.
bool OracleInWindow(const trass::geo::Point& p, const trass::geo::Mbr& w);

struct OracleHit {
  uint64_t id = 0;
  double distance = 0.0;
};

/// Every trajectory within `eps` of `query`, ascending by id.
std::vector<OracleHit> OracleThreshold(
    const std::vector<trass::core::Trajectory>& data,
    const std::vector<trass::geo::Point>& query, double eps);

/// The `k` nearest trajectories (ties broken by id).
std::vector<OracleHit> OracleTopK(
    const std::vector<trass::core::Trajectory>& data,
    const std::vector<trass::geo::Point>& query, int k);

/// Ids of trajectories with a point inside `window`, ascending.
std::vector<uint64_t> OracleRange(
    const std::vector<trass::core::Trajectory>& data,
    const trass::geo::Mbr& window);

/// Compares an answer with the oracle's; returns "" when it agrees,
/// otherwise a description of the first disagreement. Distances agree
/// within a relative 1e-9; ids at the eps boundary (or tied at the k-th
/// distance) may go either way.
std::string CompareThreshold(const std::vector<trass::core::SearchResult>& got,
                             const std::vector<OracleHit>& want, double eps);
std::string CompareTopK(const std::vector<trass::core::SearchResult>& got,
                        const std::vector<OracleHit>& want, int k,
                        const std::vector<trass::core::Trajectory>& data,
                        const std::vector<trass::geo::Point>& query);
std::string CompareRange(std::vector<uint64_t> got,
                         const std::vector<uint64_t>& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
