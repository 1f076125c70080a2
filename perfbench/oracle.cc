#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

using trass::core::SearchResult;
using trass::core::Trajectory;
using trass::geo::Point;

namespace {

double Dist(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

// Any coupling pairs the first points and the last points, so their
// distances bound the Fréchet distance from below.
double EndpointBound(const std::vector<Point>& a, const std::vector<Point>& b) {
  return std::max(Dist(a.front(), b.front()), Dist(a.back(), b.back()));
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

}  // namespace

double OracleFrechet(const std::vector<Point>& a, const std::vector<Point>& b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return INFINITY;
  std::vector<double> table(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double d = Dist(a[i], b[j]);
      double reach;
      if (i == 0 && j == 0) {
        reach = d;
      } else if (i == 0) {
        reach = table[j - 1];
      } else if (j == 0) {
        reach = table[(i - 1) * m];
      } else {
        reach = std::min({table[(i - 1) * m + j], table[(i - 1) * m + j - 1],
                          table[i * m + j - 1]});
      }
      table[i * m + j] = std::max(reach, d);
    }
  }
  return table.back();
}

bool OracleInWindow(const Point& p, const trass::geo::Mbr& w) {
  return p.x >= w.min_x() && p.x <= w.max_x() && p.y >= w.min_y() &&
         p.y <= w.max_y();
}

std::vector<OracleHit> OracleThreshold(const std::vector<Trajectory>& data,
                                       const std::vector<Point>& query,
                                       double eps) {
  std::vector<OracleHit> hits;
  for (const Trajectory& t : data) {
    if (EndpointBound(query, t.points) > eps * (1 + 1e-9)) continue;
    const double d = OracleFrechet(query, t.points);
    if (d <= eps * (1 + 1e-9)) hits.push_back(OracleHit{t.id, d});
  }
  std::sort(hits.begin(), hits.end(),
            [](const OracleHit& x, const OracleHit& y) { return x.id < y.id; });
  return hits;
}

std::vector<OracleHit> OracleTopK(const std::vector<Trajectory>& data,
                                  const std::vector<Point>& query, int k) {
  std::vector<std::pair<double, size_t>> order;
  order.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    order.emplace_back(EndpointBound(query, data[i].points), i);
  }
  std::sort(order.begin(), order.end());
  auto worse = [](const OracleHit& x, const OracleHit& y) {
    return x.distance != y.distance ? x.distance < y.distance : x.id < y.id;
  };
  std::vector<OracleHit> best;  // max-heap on (distance, id)
  for (const auto& [bound, i] : order) {
    if (static_cast<int>(best.size()) == k &&
        bound > best.front().distance * (1 + 1e-9)) {
      break;
    }
    const OracleHit hit{data[i].id, OracleFrechet(query, data[i].points)};
    if (static_cast<int>(best.size()) < k) {
      best.push_back(hit);
      std::push_heap(best.begin(), best.end(), worse);
    } else if (worse(hit, best.front())) {
      std::pop_heap(best.begin(), best.end(), worse);
      best.back() = hit;
      std::push_heap(best.begin(), best.end(), worse);
    }
  }
  std::sort(best.begin(), best.end(), worse);
  return best;
}

std::vector<uint64_t> OracleRange(const std::vector<Trajectory>& data,
                                  const trass::geo::Mbr& window) {
  std::vector<uint64_t> ids;
  for (const Trajectory& t : data) {
    for (const Point& p : t.points) {
      if (OracleInWindow(p, window)) {
        ids.push_back(t.id);
        break;
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string CompareThreshold(const std::vector<SearchResult>& got,
                             const std::vector<OracleHit>& want, double eps) {
  std::vector<SearchResult> sorted = got;
  std::sort(sorted.begin(), sorted.end(),
            [](const SearchResult& x, const SearchResult& y) {
              return x.id < y.id;
            });
  std::ostringstream err;
  size_t w = 0;
  for (size_t g = 0; g < sorted.size(); ++g) {
    if (g > 0 && sorted[g].id == sorted[g - 1].id) {
      err << "duplicate id " << sorted[g].id;
      return err.str();
    }
    while (w < want.size() && want[w].id < sorted[g].id) {
      if (want[w].distance < eps * (1 - 1e-9)) {
        err << "missing id " << want[w].id << " at " << want[w].distance;
        return err.str();
      }
      ++w;
    }
    if (w == want.size() || want[w].id != sorted[g].id) {
      err << "extra id " << sorted[g].id << " at " << sorted[g].distance;
      return err.str();
    }
    if (!Near(want[w].distance, sorted[g].distance)) {
      err << "id " << sorted[g].id << " distance " << sorted[g].distance
          << " != " << want[w].distance;
      return err.str();
    }
    ++w;
  }
  for (; w < want.size(); ++w) {
    if (want[w].distance < eps * (1 - 1e-9)) {
      err << "missing id " << want[w].id << " at " << want[w].distance;
      return err.str();
    }
  }
  return "";
}

std::string CompareTopK(const std::vector<SearchResult>& got,
                        const std::vector<OracleHit>& want, int k,
                        const std::vector<Trajectory>& data,
                        const std::vector<Point>& query) {
  std::ostringstream err;
  if (got.size() != want.size() || static_cast<int>(got.size()) > k) {
    err << "returned " << got.size() << " results, oracle " << want.size();
    return err.str();
  }
  std::vector<double> got_d;
  std::vector<uint64_t> ids;
  for (const SearchResult& r : got) {
    if (r.id == 0 || r.id > data.size() || data[r.id - 1].id != r.id) {
      err << "unknown id " << r.id;
      return err.str();
    }
    const double d = OracleFrechet(query, data[r.id - 1].points);
    if (!Near(d, r.distance)) {
      err << "id " << r.id << " distance " << r.distance << " != " << d;
      return err.str();
    }
    got_d.push_back(d);
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id in top-k";
  }
  std::sort(got_d.begin(), got_d.end());
  for (size_t i = 0; i < want.size(); ++i) {
    if (!Near(got_d[i], want[i].distance)) {
      err << "rank " << i << " distance " << got_d[i] << " != "
          << want[i].distance;
      return err.str();
    }
  }
  return "";
}

std::string CompareRange(std::vector<uint64_t> got,
                         const std::vector<uint64_t>& want) {
  std::sort(got.begin(), got.end());
  if (got == want) return "";
  std::ostringstream err;
  err << "range returned " << got.size() << " ids, oracle " << want.size();
  return err.str();
}

}  // namespace perfbench
