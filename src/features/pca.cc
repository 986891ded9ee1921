#include "features/pca.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/** Relative off-diagonal threshold that counts as converged. */
constexpr double kJacobiTolerance = 1e-14;

/** Hard cap on cyclic sweeps; 15x15 converges in well under 10. */
constexpr std::size_t kMaxSweeps = 64;

double
offDiagonalNorm(const std::vector<double> &a, std::size_t n)
{
    double sum = 0.0;
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t q = p + 1; q < n; ++q)
            sum += a[p * n + q] * a[p * n + q];
    return std::sqrt(sum);
}

} // namespace

EigenDecomposition
jacobiEigenSymmetric(const std::vector<double> &m, std::size_t n)
{
    GWS_ASSERT(m.size() == n * n, "matrix size mismatch");
    GWS_ASSERT(n > 0, "empty matrix");

    // Work on a symmetrized copy so only the upper triangle of the
    // input is trusted, and accumulate rotations into v (row-major,
    // columns are eigenvectors).
    std::vector<double> a(n * n, 0.0);
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t q = p; q < n; ++q)
            a[p * n + q] = a[q * n + p] = m[p * n + q];
    std::vector<double> v(n * n, 0.0);
    for (std::size_t p = 0; p < n; ++p)
        v[p * n + p] = 1.0;

    double scale = 0.0;
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t q = 0; q < n; ++q)
            scale = std::max(scale, std::fabs(a[p * n + q]));
    const double tol = kJacobiTolerance * std::max(scale, 1.0);

    // Cyclic sweeps in fixed (p, q) row-major order: no data-dependent
    // pivot selection, so the rotation sequence — and therefore every
    // rounding decision — is identical on every platform.
    for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
        if (offDiagonalNorm(a, n) <= tol)
            break;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a[p * n + q];
                if (std::fabs(apq) <= tol)
                    continue;
                const double app = a[p * n + p];
                const double aqq = a[q * n + q];
                const double theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle (Golub & Van
                // Loan): the smaller root of t^2 + 2*theta*t - 1 = 0.
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::fabs(theta) +
                     std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a[k * n + p];
                    const double akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a[p * n + k];
                    const double aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v[k * n + p];
                    const double vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort by eigenvalue descending; equal values keep input-column
    // order so the decomposition is unique.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  const double ex = a[x * n + x];
                  const double ey = a[y * n + y];
                  if (ex != ey)
                      return ex > ey;
                  return x < y;
              });

    EigenDecomposition out;
    out.values.reserve(n);
    out.vectors.reserve(n);
    for (std::size_t j : order) {
        out.values.push_back(a[j * n + j]);
        std::vector<double> vec(n);
        for (std::size_t k = 0; k < n; ++k)
            vec[k] = v[k * n + j];
        // Sign canonicalization: flip so the largest-magnitude
        // component (first such index on ties) is positive.
        std::size_t arg = 0;
        for (std::size_t k = 1; k < n; ++k)
            if (std::fabs(vec[k]) > std::fabs(vec[arg]))
                arg = k;
        if (vec[arg] < 0.0)
            for (double &x : vec)
                x = -x;
        out.vectors.push_back(std::move(vec));
    }
    return out;
}

PcaTransform
PcaTransform::fit(const std::vector<FeatureVector> &sample,
                  const PcaConfig &config)
{
    PcaTransform t;
    // The documented A/B anchor: a full variance fraction means "do
    // not touch the space at all", so --pca=1.0 clusters bit-identically
    // to the naive path.
    if (config.varianceFraction >= 1.0 || sample.empty())
        return t;

    const std::size_t n = numFeatureDims;
    const double count = static_cast<double>(sample.size());
    std::array<double, numFeatureDims> mean{};
    for (const auto &s : sample)
        for (std::size_t d = 0; d < n; ++d)
            mean[d] += s.at(d);
    for (std::size_t d = 0; d < n; ++d)
        mean[d] /= count;

    std::vector<double> cov(n * n, 0.0);
    for (const auto &s : sample)
        for (std::size_t p = 0; p < n; ++p) {
            const double dp = s.at(p) - mean[p];
            for (std::size_t q = p; q < n; ++q)
                cov[p * n + q] += dp * (s.at(q) - mean[q]);
        }
    double total = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = p; q < n; ++q)
            cov[p * n + q] /= count;
        total += cov[p * n + p];
    }
    if (total <= 1e-18)
        return t; // constant sample: nothing to rotate

    const EigenDecomposition eig = jacobiEigenSymmetric(cov, n);

    const double target = config.varianceFraction * total;
    std::size_t keep = 0;
    double kept_var = 0.0;
    while (keep < n && kept_var < target) {
        kept_var += std::max(eig.values[keep], 0.0);
        ++keep;
    }
    keep = std::max<std::size_t>(keep, 1);

    t.identity = false;
    t.components = keep;
    t.values.assign(eig.values.begin(), eig.values.begin() + keep);
    t.basis.resize(keep);
    for (std::size_t j = 0; j < keep; ++j) {
        // Fold the whitening scale into the basis row; components
        // with (numerically) zero variance map to 0, mirroring the
        // Normalizer's degenerate-dimension convention.
        double w = 1.0;
        if (config.whiten)
            w = eig.values[j] > 1e-12
                    ? 1.0 / std::sqrt(eig.values[j])
                    : 0.0;
        for (std::size_t d = 0; d < n; ++d)
            t.basis[j][d] = eig.vectors[j][d] * w;
    }

    // Components kept over all fits: their mean is this over `fits`.
    auto &registry = obs::metricsRegistry();
    static obs::Counter &fits =
        registry.counter("gws.features.pca.fits");
    static obs::Counter &kept =
        registry.counter("gws.features.pca.components");
    fits.increment();
    kept.add(keep);
    return t;
}

FeatureVector
PcaTransform::apply(const FeatureVector &v) const
{
    if (identity)
        return v;
    FeatureVector out;
    for (std::size_t j = 0; j < components; ++j) {
        double dot = 0.0;
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            dot += basis[j][d] * v.at(d);
        out.at(j) = dot;
    }
    return out;
}

std::vector<FeatureVector>
PcaTransform::applyAll(const std::vector<FeatureVector> &vs) const
{
    if (identity)
        return vs;
    std::vector<FeatureVector> out;
    out.reserve(vs.size());
    for (const auto &v : vs)
        out.push_back(apply(v));
    return out;
}

const char *
toString(FeaturePath path)
{
    switch (path) {
    case FeaturePath::Auto:
        return "auto";
    case FeaturePath::Naive:
        return "naive";
    case FeaturePath::Pca:
        return "pca";
    }
    return "?";
}

namespace {

/** Process default installed by --pca: path (as int, -1 unset). */
std::atomic<int> defaultPath{-1};
/** Variance fraction that rides along with the default path. */
std::atomic<double> defaultVariance{1.0};

} // namespace

void
setDefaultFeatureSpace(const FeatureSpaceConfig &config)
{
    GWS_ASSERT(config.path != FeaturePath::Auto,
               "the default feature space must be concrete");
    defaultVariance.store(config.pcaVariance, std::memory_order_relaxed);
    defaultPath.store(static_cast<int>(config.path),
                      std::memory_order_release);
}

FeatureSpaceConfig
resolveFeatureSpace(const FeatureSpaceConfig &config)
{
    FeatureSpaceConfig out = config;
    if (out.path != FeaturePath::Auto)
        return out;
    const int installed = defaultPath.load(std::memory_order_acquire);
    if (installed >= 0) {
        out.path = static_cast<FeaturePath>(installed);
        out.pcaVariance =
            defaultVariance.load(std::memory_order_relaxed);
    } else {
        out.path = FeaturePath::Naive;
    }
    return out;
}

std::vector<FeatureVector>
projectFeatures(std::vector<FeatureVector> points,
                const FeatureSpaceConfig &config)
{
    const FeatureSpaceConfig cfg = resolveFeatureSpace(config);
    if (cfg.dropDim != noDropDim) {
        GWS_ASSERT(cfg.dropDim < numFeatureDims,
                   "dropDim out of range");
        for (auto &p : points)
            p.at(cfg.dropDim) = 0.0;
    }
    if (cfg.path == FeaturePath::Pca && !points.empty()) {
        PcaConfig pc;
        pc.varianceFraction = cfg.pcaVariance;
        const PcaTransform t = PcaTransform::fit(points, pc);
        if (!t.isIdentity())
            points = t.applyAll(points);
    }
    return points;
}

} // namespace gws
