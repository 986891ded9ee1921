#include "partition/multilevel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace gws {

namespace {

constexpr std::uint32_t kUnassigned =
    std::numeric_limits<std::uint32_t>::max();

/** Largest graph the O(n·E) FM escape pass is worth running on. */
constexpr std::size_t kEscapeMaxNodes = 4096;

/** Forced moves allowed past the best objective before giving up. */
constexpr std::size_t kEscapeSlack = 8;

/** One coarsening level: the coarse graph and the fine->coarse map. */
struct CoarseLevel
{
    PartGraph graph;
    std::vector<std::uint32_t> map;
};

/**
 * Heavy-edge matching + contraction. Nodes are visited in ascending
 * index order; each unmatched node pairs with its heaviest-edge
 * unmatched neighbor (first wins on ties, i.e. the lowest id, because
 * adjacency runs ascend). Coarse ids are issued in visit order, so a
 * chain stays a chain with its node order preserved.
 */
CoarseLevel
coarsen(const PartGraph &fine)
{
    const std::size_t n = fine.nodeCount();
    CoarseLevel level;
    level.map.assign(n, kUnassigned);

    // Strongest incident edge per node: contraction is only allowed
    // along edges comparable to both endpoints' best, so a weakly
    // attached node (e.g. an outlier draw whose similarities are all
    // tiny) survives coarsening as a singleton instead of vanishing
    // into a dense neighbor before the initial partition can see it.
    std::vector<double> max_edge(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t e = fine.xadj[i]; e < fine.xadj[i + 1]; ++e)
            max_edge[i] = std::max(max_edge[i], fine.ewgt[e]);

    std::vector<std::uint32_t> match(n, kUnassigned);
    std::uint32_t coarse_n = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (level.map[i] != kUnassigned)
            continue;
        std::uint32_t best = kUnassigned;
        double best_w = 0.0;
        for (std::size_t e = fine.xadj[i]; e < fine.xadj[i + 1]; ++e) {
            const std::uint32_t nb = fine.adj[e];
            if (level.map[nb] != kUnassigned)
                continue;
            if (best == kUnassigned || fine.ewgt[e] > best_w) {
                best = nb;
                best_w = fine.ewgt[e];
            }
        }
        level.map[i] = coarse_n;
        if (best != kUnassigned &&
            best_w * 2.0 >= std::max(max_edge[i], max_edge[best])) {
            level.map[best] = coarse_n;
            match[i] = best;
        }
        ++coarse_n;
    }

    PartGraph &cg = level.graph;
    cg.chain = fine.chain;
    cg.vwgt.assign(coarse_n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        cg.vwgt[level.map[i]] += fine.vwgt[i];

    // Aggregate edges per coarse node with a dense scratch row; the
    // touched list is sorted so adjacency runs stay ascending (and the
    // build deterministic) regardless of visit order.
    cg.xadj.assign(1, 0);
    cg.xadj.reserve(coarse_n + 1);
    std::vector<double> accum(coarse_n, 0.0);
    std::vector<std::uint32_t> touched;
    std::vector<std::vector<std::uint32_t>> members(coarse_n);
    for (std::size_t i = 0; i < n; ++i)
        members[level.map[i]].push_back(static_cast<std::uint32_t>(i));
    for (std::uint32_t c = 0; c < coarse_n; ++c) {
        touched.clear();
        for (std::uint32_t m : members[c]) {
            for (std::size_t e = fine.xadj[m]; e < fine.xadj[m + 1];
                 ++e) {
                const std::uint32_t cnb = level.map[fine.adj[e]];
                if (cnb == c)
                    continue;
                if (accum[cnb] == 0.0)
                    touched.push_back(cnb);
                accum[cnb] += fine.ewgt[e];
            }
        }
        std::sort(touched.begin(), touched.end());
        for (std::uint32_t cnb : touched) {
            cg.adj.push_back(cnb);
            cg.ewgt.push_back(accum[cnb]);
            accum[cnb] = 0.0;
        }
        cg.xadj.push_back(cg.adj.size());
    }
    return level;
}

/**
 * Contiguous initial partition of a chain: greedy prefix fill toward
 * each part's cumulative target, never leaving later parts without a
 * node. The include/exclude decision takes the boundary closer to the
 * target, so refinement starts near the optimum.
 */
std::vector<std::uint32_t>
initialChain(const PartGraph &g, std::size_t parts)
{
    const std::size_t n = g.nodeCount();
    const double total = g.totalNodeWeight();
    std::vector<std::uint32_t> part(n, 0);
    std::size_t node = 0;
    double cum = 0.0;
    for (std::size_t p = 0; p < parts; ++p) {
        const std::size_t must_leave = parts - p - 1;
        part[node] = static_cast<std::uint32_t>(p);
        cum += g.vwgt[node];
        ++node;
        const double target = total * static_cast<double>(p + 1) /
                              static_cast<double>(parts);
        while (node + must_leave < n) {
            if (std::abs(cum + g.vwgt[node] - target) <=
                std::abs(cum - target)) {
                part[node] = static_cast<std::uint32_t>(p);
                cum += g.vwgt[node];
                ++node;
            } else {
                break;
            }
        }
    }
    while (node < n)
        part[node++] = static_cast<std::uint32_t>(parts - 1);
    return part;
}

/**
 * Greedy graph growing for general graphs. Seeds are chosen by
 * farthest-point sampling: the heaviest node first, then repeatedly
 * the node with the least edge similarity to any seed so far (heavier
 * first on ties). That spreads the seeds across distinct regions of
 * the graph AND gives isolated nodes their own part — with
 * heaviest-only seeding an outlier can never anchor a part and gets
 * folded into whatever dense region it weakly touches. Every other
 * node (heavy first) then joins the part it has the most edge
 * affinity to among parts still under the balance tolerance, falling
 * back to the lightest part.
 */
std::vector<std::uint32_t>
initialGrow(const PartGraph &g, std::size_t parts, double tolerance)
{
    const std::size_t n = g.nodeCount();
    const double ideal =
        g.totalNodeWeight() / static_cast<double>(parts);

    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&g](std::uint32_t a, std::uint32_t b) {
                  return g.vwgt[a] != g.vwgt[b] ? g.vwgt[a] > g.vwgt[b]
                                                : a < b;
              });

    std::vector<std::uint32_t> part(n, kUnassigned);
    std::vector<double> weight(parts, 0.0);
    std::vector<double> affinity(parts, 0.0);

    // Farthest-point seed selection. seed_sim[i] is the strongest
    // edge from i to any chosen seed; the next seed minimizes it.
    std::vector<double> seed_sim(n, 0.0);
    std::uint32_t seed = order[0];
    for (std::size_t p = 0; p < parts; ++p) {
        part[seed] = static_cast<std::uint32_t>(p);
        weight[p] = g.vwgt[seed];
        if (p + 1 == parts)
            break;
        for (std::size_t e = g.xadj[seed]; e < g.xadj[seed + 1]; ++e)
            seed_sim[g.adj[e]] =
                std::max(seed_sim[g.adj[e]], g.ewgt[e]);
        std::uint32_t next = kUnassigned;
        for (std::uint32_t i : order) {
            if (part[i] != kUnassigned)
                continue;
            if (next == kUnassigned || seed_sim[i] < seed_sim[next])
                next = i;
        }
        seed = next;
    }

    for (std::uint32_t i : order) {
        if (part[i] != kUnassigned)
            continue;
        std::fill(affinity.begin(), affinity.end(), 0.0);
        for (std::size_t e = g.xadj[i]; e < g.xadj[i + 1]; ++e) {
            const std::uint32_t p = part[g.adj[e]];
            if (p != kUnassigned)
                affinity[p] += g.ewgt[e];
        }
        std::uint32_t best = kUnassigned;
        for (std::size_t p = 0; p < parts; ++p) {
            if (weight[p] + g.vwgt[i] > tolerance * ideal)
                continue;
            if (best == kUnassigned || affinity[p] > affinity[best] ||
                (affinity[p] == affinity[best] &&
                 weight[p] < weight[best]))
                best = static_cast<std::uint32_t>(p);
        }
        if (best == kUnassigned) { // every part full: take the lightest
            best = 0;
            for (std::size_t p = 1; p < parts; ++p)
                if (weight[p] < weight[best])
                    best = static_cast<std::uint32_t>(p);
        }
        part[i] = best;
        weight[best] += g.vwgt[i];
    }
    return part;
}

/** Sum of edge weights crossing parts (each edge counted once). */
double
edgeCut(const PartGraph &g, const std::vector<std::uint32_t> &part)
{
    double cut = 0.0;
    for (std::size_t i = 0; i < g.nodeCount(); ++i)
        for (std::size_t e = g.xadj[i]; e < g.xadj[i + 1]; ++e)
            if (g.adj[e] > i && part[g.adj[e]] != part[i])
                cut += g.ewgt[e];
    return cut;
}

/**
 * FM-style boundary refinement: greedy single-node moves between
 * neighboring parts, accepted when they strictly improve the cost
 * function's objective (Greedy: strictly reduce the normalized cut
 * under the balance tolerance). Moves never empty a part, and on a
 * chain only interval endpoints have out-of-part neighbors, so
 * contiguity is preserved move by move.
 */
class Refiner
{
  public:
    Refiner(const PartGraph &g, const PartitionConfig &cfg,
            std::vector<std::uint32_t> &part)
        : graph(g), config(cfg), assignment(part),
          parts(cfg.parts), weight(parts, 0.0), count(parts, 0)
    {
        for (std::size_t i = 0; i < g.nodeCount(); ++i) {
            weight[assignment[i]] += g.vwgt[i];
            ++count[assignment[i]];
        }
        totalWeight = g.totalNodeWeight();
        ideal = totalWeight / static_cast<double>(parts);
        totalEdgeWeight = 0.0;
        for (double w : g.ewgt)
            totalEdgeWeight += w;
        totalEdgeWeight = std::max(totalEdgeWeight, 1e-12);
        cut = edgeCut(g, assignment);
        sumSquares = 0.0;
        for (double w : weight)
            sumSquares += w * w;
    }

    /**
     * Run greedy passes until one makes no move, then try one FM
     * escape pass (forced moves + rollback); returns passes executed.
     */
    std::size_t
    run()
    {
        std::size_t passes = 0;
        for (std::size_t p = 0; p < config.refinePasses; ++p) {
            ++passes;
            if (pass() > 0)
                continue;
            if (graph.nodeCount() > kEscapeMaxNodes ||
                escapePass() == 0)
                break;
        }
        return passes;
    }

  private:
    /** One ascending-index sweep; returns accepted moves. */
    std::size_t
    pass()
    {
        std::size_t moves = 0;
        std::vector<double> gain(parts, 0.0);
        std::vector<std::uint32_t> touched;
        for (std::size_t i = 0; i < graph.nodeCount(); ++i) {
            const std::uint32_t src = assignment[i];
            if (count[src] <= 1)
                continue; // moving would empty the source part

            // Edge affinity of node i toward each neighboring part.
            touched.clear();
            double internal = 0.0;
            for (std::size_t e = graph.xadj[i]; e < graph.xadj[i + 1];
                 ++e) {
                const std::uint32_t p = assignment[graph.adj[e]];
                if (p == src) {
                    internal += graph.ewgt[e];
                    continue;
                }
                if (gain[p] == 0.0)
                    touched.push_back(p);
                gain[p] += graph.ewgt[e];
            }

            std::uint32_t best = kUnassigned;
            double best_obj = objective();
            for (std::uint32_t dst : touched) {
                const double obj =
                    moveObjective(i, src, dst, internal, gain[dst]);
                if (obj < best_obj - 1e-12) {
                    best_obj = obj;
                    best = dst;
                }
            }
            if (best != kUnassigned) {
                apply(i, src, best, internal, gain[best]);
                ++moves;
            }
            for (std::uint32_t p : touched)
                gain[p] = 0.0;
        }
        return moves;
    }

    /**
     * FM escape for stalled greedy refinement: repeatedly force the
     * globally best candidate move — worsening moves included — lock
     * the moved node for the rest of the pass, and track the best
     * objective seen; stop after `kEscapeSlack` consecutive moves
     * without a new best and roll back to the best prefix. Crossing
     * objective ridges this way recovers pairwise swaps (the classic
     * failure of improving-only refinement: each half of the swap
     * worsens the objective, the pair improves it). The prefix at
     * length 0 is the starting assignment, so the pass never makes
     * the partition worse. Returns the number of moves kept.
     */
    std::size_t
    escapePass()
    {
        const std::size_t n = graph.nodeCount();
        std::vector<char> locked(n, 0);
        struct Step
        {
            std::uint32_t node;
            std::uint32_t from;
        };
        std::vector<Step> log;
        double best_obj = objective();
        std::size_t best_len = 0;
        std::vector<double> gain(parts, 0.0);
        std::vector<std::uint32_t> touched;

        while (log.size() < n && log.size() - best_len <= kEscapeSlack) {
            std::uint32_t mv_node = kUnassigned;
            std::uint32_t mv_dst = 0;
            double mv_obj = std::numeric_limits<double>::infinity();
            double mv_internal = 0.0;
            double mv_external = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                if (locked[i])
                    continue;
                const std::uint32_t src = assignment[i];
                if (count[src] <= 1)
                    continue;
                touched.clear();
                double internal = 0.0;
                for (std::size_t e = graph.xadj[i];
                     e < graph.xadj[i + 1]; ++e) {
                    const std::uint32_t p = assignment[graph.adj[e]];
                    if (p == src) {
                        internal += graph.ewgt[e];
                        continue;
                    }
                    if (gain[p] == 0.0)
                        touched.push_back(p);
                    gain[p] += graph.ewgt[e];
                }
                for (std::uint32_t dst : touched) {
                    const double obj = moveObjective(i, src, dst,
                                                     internal,
                                                     gain[dst]);
                    if (obj < mv_obj - 1e-12) {
                        mv_node = static_cast<std::uint32_t>(i);
                        mv_dst = dst;
                        mv_obj = obj;
                        mv_internal = internal;
                        mv_external = gain[dst];
                    }
                }
                for (std::uint32_t p : touched)
                    gain[p] = 0.0;
            }
            if (mv_node == kUnassigned || !std::isfinite(mv_obj))
                break;
            log.push_back({mv_node, assignment[mv_node]});
            apply(mv_node, assignment[mv_node], mv_dst, mv_internal,
                  mv_external);
            locked[mv_node] = 1;
            if (mv_obj < best_obj - 1e-12) {
                best_obj = mv_obj;
                best_len = log.size();
            }
        }

        while (log.size() > best_len) {
            const Step s = log.back();
            log.pop_back();
            moveBack(s.node, s.from);
        }
        return best_len;
    }

    /** Undo a forced move: return `node` to part `dst`. */
    void
    moveBack(std::uint32_t node, std::uint32_t dst)
    {
        const std::uint32_t src = assignment[node];
        double internal = 0.0;
        double external = 0.0;
        for (std::size_t e = graph.xadj[node]; e < graph.xadj[node + 1];
             ++e) {
            const std::uint32_t p = assignment[graph.adj[e]];
            if (p == src)
                internal += graph.ewgt[e];
            else if (p == dst)
                external += graph.ewgt[e];
        }
        apply(node, src, dst, internal, external);
    }

    /** Objective of the current assignment (the move baseline). */
    double
    objective() const
    {
        const double c = cut / totalEdgeWeight;
        switch (config.costFn) {
          case PartitionCostFn::Balanced:
            return sumSquares / (ideal * ideal *
                                 static_cast<double>(parts)) +
                   0.1 * c;
          case PartitionCostFn::Greedy:
            return c;
        }
        GWS_PANIC("unknown partition cost fn");
    }

    /** Objective after moving node i from src to dst. */
    double
    moveObjective(std::size_t i, std::uint32_t src, std::uint32_t dst,
                  double internal, double external)
    {
        const double w = graph.vwgt[i];
        const double cut_delta = internal - external;
        const double w_src = weight[src] - w;
        const double w_dst = weight[dst] + w;
        const double c = (cut + cut_delta) / totalEdgeWeight;
        switch (config.costFn) {
          case PartitionCostFn::Balanced: {
            const double ssq = sumSquares - weight[src] * weight[src] -
                               weight[dst] * weight[dst] +
                               w_src * w_src + w_dst * w_dst;
            return ssq / (ideal * ideal *
                          static_cast<double>(parts)) +
                   0.1 * c;
          }
          case PartitionCostFn::Greedy:
            // Hard balance constraint instead of a balance term.
            if (w_dst > config.balanceTolerance * ideal)
                return std::numeric_limits<double>::infinity();
            return c;
        }
        GWS_PANIC("unknown partition cost fn");
    }

    void
    apply(std::size_t i, std::uint32_t src, std::uint32_t dst,
          double internal, double external)
    {
        const double w = graph.vwgt[i];
        sumSquares += -weight[src] * weight[src] -
                      weight[dst] * weight[dst];
        weight[src] -= w;
        weight[dst] += w;
        sumSquares += weight[src] * weight[src] +
                      weight[dst] * weight[dst];
        --count[src];
        ++count[dst];
        cut += internal - external;
        assignment[i] = dst;
    }

    const PartGraph &graph;
    const PartitionConfig &config;
    std::vector<std::uint32_t> &assignment;
    std::size_t parts;
    std::vector<double> weight;
    std::vector<std::size_t> count;
    double totalWeight = 0.0;
    double ideal = 1.0;
    double totalEdgeWeight = 1.0;
    double cut = 0.0;
    double sumSquares = 0.0;
};

} // namespace

PartitionResult
multilevelPartition(const PartGraph &graph, const PartitionConfig &config)
{
    const std::size_t n = graph.nodeCount();
    PartitionResult result;
    if (n == 0)
        return result;

    PartitionConfig cfg = config;
    cfg.parts = std::clamp<std::size_t>(cfg.parts, 1, n);
    cfg.coarsenNodesPerPart = std::max<std::size_t>(
        cfg.coarsenNodesPerPart, 1);
    result.parts = cfg.parts;

    // Trivial shapes need no machinery (and k == n must be exact).
    if (cfg.parts == 1) {
        result.assignment.assign(n, 0);
    } else if (cfg.parts == n) {
        result.assignment.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            result.assignment[i] = static_cast<std::uint32_t>(i);
    } else {
        // Coarsen until the graph is small relative to the part count
        // or matching stops making progress.
        std::vector<CoarseLevel> levels;
        {
            obs::SpanScope span("part.coarsen");
            const PartGraph *cur = &graph;
            const std::size_t stop =
                cfg.parts * cfg.coarsenNodesPerPart;
            while (cur->nodeCount() > stop &&
                   levels.size() < cfg.maxCoarsenLevels) {
                CoarseLevel level = coarsen(*cur);
                const std::size_t coarse_n = level.graph.nodeCount();
                if (coarse_n * 20 > cur->nodeCount() * 19)
                    break; // < 5% shrink: matching has saturated
                levels.push_back(std::move(level));
                cur = &levels.back().graph;
            }
        }

        const PartGraph &coarsest =
            levels.empty() ? graph : levels.back().graph;
        std::vector<std::uint32_t> part;
        {
            obs::SpanScope span("part.init");
            part = coarsest.chain
                       ? initialChain(coarsest, cfg.parts)
                       : initialGrow(coarsest, cfg.parts,
                                     cfg.balanceTolerance);
        }

        // Uncoarsen, refining at every level (coarsest included).
        {
            obs::SpanScope span("part.refine");
            for (std::size_t l = levels.size(); l-- > 0;) {
                const PartGraph &fine =
                    l == 0 ? graph : levels[l - 1].graph;
                result.refinePasses +=
                    Refiner(levels[l].graph, cfg, part).run();
                std::vector<std::uint32_t> fine_part(fine.nodeCount());
                for (std::size_t i = 0; i < fine.nodeCount(); ++i)
                    fine_part[i] = part[levels[l].map[i]];
                part = std::move(fine_part);
            }
            result.refinePasses += Refiner(graph, cfg, part).run();
        }
        result.coarsenLevels = levels.size();
        result.assignment = std::move(part);
    }

    result.partWeights.assign(result.parts, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        result.partWeights[result.assignment[i]] += graph.vwgt[i];
    result.cutCost = edgeCut(graph, result.assignment);
    const double ideal =
        graph.totalNodeWeight() / static_cast<double>(result.parts);
    double max_w = 0.0;
    for (double w : result.partWeights)
        max_w = std::max(max_w, w);
    result.imbalance = ideal > 0.0 ? max_w / ideal : 1.0;

    static auto &partitions =
        obs::metricsRegistry().counter("gws.part.partitions");
    static auto &cut_g = obs::metricsRegistry().gauge("gws.part.cut_cost");
    static auto &imb_g =
        obs::metricsRegistry().gauge("gws.part.imbalance");
    static auto &lvl_g =
        obs::metricsRegistry().gauge("gws.part.coarsen_levels");
    static auto &ref_c =
        obs::metricsRegistry().counter("gws.part.refine_passes");
    partitions.increment();
    cut_g.set(result.cutCost);
    imb_g.set(result.imbalance);
    lvl_g.set(static_cast<double>(result.coarsenLevels));
    ref_c.add(result.refinePasses);
    return result;
}

} // namespace gws
