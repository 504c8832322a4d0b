/**
 * @file
 * The componentized predictor core: a uniform ComponentPredictor
 * interface over the per-resource bounds (paper section 4), a
 * per-microarchitecture component registry derived from
 * uarch::MicroArchConfig, and the explicit PredictContext that carries
 * everything one staged evaluation needs — the analyzed block, the
 * arch config, the resolved registry view, and the caller's per-thread
 * scratch.
 *
 * Ablation configurations (ModelConfig) are resolved ONCE per (arch,
 * config) into an immutable RegistryView — a table of component
 * pointers per pipeline leg — so the per-call driver has no
 * `if (config.useX)` branches left; it just walks the view in staged
 * order (cheap arithmetic bounds, then the front-end simulations, then
 * ports, then precedence). See src/facile/README.md for the
 * architecture and for how to add a component or a µarch quirk.
 */
#ifndef FACILE_FACILE_COMPONENT_H
#define FACILE_FACILE_COMPONENT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "facile/dec.h"
#include "facile/ports.h"
#include "facile/precedence.h"
#include "facile/predec.h"
#include "facile/predictor.h"

namespace facile::model {

/**
 * Per-thread scratch for the whole component pipeline. Replaces the
 * thread_local buffers previously scattered across predec/dec/ports/
 * precedence: ownership is explicit — the engine keeps one instance
 * per pool worker, the eval harness one per worker lane, serial tools
 * one per thread (or tlsPredictScratch()). All buffers keep their
 * capacity across calls, so steady-state prediction allocates nothing
 * beyond what the caller asks for (payload vectors).
 *
 * A PredictScratch may not be used from two threads at once; it is
 * deliberately non-copyable.
 */
struct PredictScratch
{
    PrecedenceScratch precedence;
    PortsScratch ports;
    DecScratch dec;
    PredecScratch predec;

    PredictScratch() = default;
    PredictScratch(const PredictScratch &) = delete;
    PredictScratch &operator=(const PredictScratch &) = delete;
};

/**
 * Everything one prediction evaluation needs, threaded explicitly from
 * the analyzed block (bb layer) through the component pipeline:
 * interned block annotations, the microarchitecture configuration, the
 * throughput notion, the requested payload depth, and the per-thread
 * scratch. Cheap to construct per call (three pointers and two flags);
 * components receive it by const reference.
 */
struct PredictContext
{
    const bb::BasicBlock &blk;
    const uarch::MicroArchConfig &cfg;
    bool loop;
    Payload payload;
    PredictScratch &scratch;
};

/**
 * One per-resource throughput bound (Predec, Dec, DSB, LSD, Issue,
 * Ports, Precedence, or a Simple* substitute). Implementations are
 * stateless singletons — all mutable state lives in the context's
 * scratch — so one instance serves every thread and every view.
 */
class ComponentPredictor
{
  public:
    virtual ~ComponentPredictor() = default;

    /** Which Prediction::componentValue slot this bound fills. */
    virtual Component id() const = 0;

    /** Display name; Simple* variants override ("SimplePredec"). */
    virtual std::string_view displayName() const;

    /** The exact throughput bound in cycles per iteration. */
    virtual double bound(const PredictContext &ctx) const = 0;

    /**
     * Optional: an upper bound on bound() that is cheap to compute
     * (O(1) on an analyzed block), or +infinity when none is
     * available. Arithmetic components return their exact bound; Ports
     * returns the µop count (all µops on one port). Search-style
     * callers can use it to rank candidates without a full evaluation.
     */
    virtual double cheapUpperBound(const PredictContext &ctx) const;

    /**
     * Optional: fill this component's interpretability payload into
     * @p out (criticalChain for Precedence, contendedPorts /
     * contendingInsts for Ports). Idempotent; byte-identical whether
     * run eagerly (Payload::Full) or on demand (model::explain).
     */
    virtual void explain(const PredictContext &ctx, Prediction &out) const;

    /**
     * Bound and payload in one pass where the implementation can share
     * work (Ports computes both from a single combination search).
     * Default: bound() then explain().
     */
    virtual double boundWithExplain(const PredictContext &ctx,
                                    Prediction &out) const;

    /** Which throughput notions the component participates in. */
    struct Notions
    {
        bool unrolled; ///< evaluated under TPU
        bool loop;     ///< evaluated under TPL
    };
    virtual Notions notions() const = 0;
};

/**
 * A ModelConfig resolved against one microarchitecture: the component
 * pointers to evaluate per pipeline leg, in staged order. Immutable
 * and cached inside the Registry — the per-call driver only reads it.
 * Null pointers mean "component disabled" (by the config or by the
 * arch itself, e.g. no LSD on Skylake).
 */
struct RegistryView
{
    /**
     * Legacy decode front end (Predec and/or Dec, with Simple*
     * substitution applied): evaluated under TPU, and under TPL when
     * the JCC erratum forces the loop onto the legacy pipe.
     */
    const ComponentPredictor *front[2] = {nullptr, nullptr};
    int nFront = 0;

    /** TPL µop-delivery choices; see predictLoop's selection rule. */
    const ComponentPredictor *lsd = nullptr; ///< arch has LSD + useLsd
    const ComponentPredictor *dsb = nullptr; ///< useDsb

    /** Back end, staged cheap-to-expensive. */
    const ComponentPredictor *issue = nullptr;
    const ComponentPredictor *ports = nullptr;
    const ComponentPredictor *precedence = nullptr;

    /** The arch runs the JCC-erratum mitigation (block test needed). */
    bool jccPossible = false;
};

/**
 * The component registry of one microarchitecture, derived from its
 * MicroArchConfig (e.g. Skylake's registry carries no LSD component —
 * SKL150 — and flags the JCC erratum leg). Holds the 512 resolved
 * RegistryViews, one per ModelConfig bit pattern, built eagerly at
 * first use so view() is a lock-free table lookup on the hot path.
 */
class Registry
{
  public:
    /** The registry of @p arch (built on first use, then immutable). */
    static const Registry &forArch(uarch::UArch arch);

    /** Resolve an ablation config to its precomputed view. O(1). */
    const RegistryView &view(const ModelConfig &config) const
    {
        return views_[config.packBits() & kViewMask];
    }

    /**
     * The primary components present on this arch, in Component enum
     * order (the iteration surface for the Table 3/4 drivers, Figure
     * 4, and tests).
     */
    const std::vector<const ComponentPredictor *> &components() const
    {
        return components_;
    }

    uarch::UArch arch() const { return arch_; }

  private:
    explicit Registry(uarch::UArch arch);

    static constexpr std::size_t kNumViews = 512; // 9 config bits
    static constexpr std::uint16_t kViewMask = kNumViews - 1;

    uarch::UArch arch_;
    std::vector<const ComponentPredictor *> components_;
    std::vector<RegistryView> views_;
};

/**
 * The canonical (full-model) predictor of component @p c — the same
 * singleton every registry references. Valid for all seven components.
 */
const ComponentPredictor &component(Component c);

/**
 * The Simple* substitute of @p c; only Predec and Dec have one
 * (throws std::invalid_argument otherwise).
 */
const ComponentPredictor &simpleVariant(Component c);

/** One Table 3 row: a named ablation of the full model. */
struct AblationVariant
{
    std::string name;
    ModelConfig config;
    bool runU; ///< meaningful under TPU (else the paper leaves a dash)
    bool runL; ///< meaningful under TPL
};

/**
 * The Table 3 variant list (full model, Simple* substitutions, the
 * "only X" / "w/o X" rows and the paper's combination rows), derived
 * by iterating the component registry rather than hand-rolled per
 * driver. Row order matches the paper's table.
 */
std::vector<AblationVariant> ablationVariants();

/**
 * Monotonic process-wide counters for the staged pipeline, read by
 * perfbench to report the precedence-skip rate and the lazy-payload
 * split. Take a snapshot before and after a measured region and
 * subtract.
 */
struct PredictCountersSnapshot
{
    std::uint64_t boundPredicts = 0; ///< Payload::None evaluations
    std::uint64_t fullPredicts = 0;  ///< Payload::Full evaluations
    std::uint64_t explainCalls = 0;  ///< on-demand explain() fills
    std::uint64_t precedenceEvals = 0;
    std::uint64_t precedenceShortCircuits = 0; ///< self-carried-only hits
};

PredictCountersSnapshot predictCounters();

namespace detail {

/** Counter hooks for the predict drivers (internal). */
void countPredict(Payload payload);
void countExplain();

} // namespace detail

} // namespace facile::model

#endif // FACILE_FACILE_COMPONENT_H
