#include "facile/component.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "facile/simple_components.h"
#include "support/per_thread_counters.h"
#include "uarch/config.h"

namespace facile::model {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Process-wide pipeline counters, kept per thread and summed by
// predictCounters(): engine lanes predict concurrently, and a shared
// counter would bounce its cache line between them on every predict.
enum Counter : std::size_t {
    kBoundPredicts,
    kFullPredicts,
    kExplainCalls,
    kPrecedenceEvals,
    kPrecedenceShortCircuits,
    kNumCounters
};
struct PredictCounterTag;
using PredictCounters =
    support::PerThreadCounters<PredictCounterTag, kNumCounters>;

inline void
bump(Counter c)
{
    PredictCounters::add(c);
}

// ---- the component singletons ---------------------------------------------

class PredecComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Predec; }
    double
    bound(const PredictContext &ctx) const override
    {
        // TPU analyzes the unrolled layout; the TPL JCC-erratum leg
        // the fixed-placement one.
        return predec(ctx.blk, !ctx.loop, ctx.scratch.predec);
    }
    Notions notions() const override { return {true, false}; }
};

class SimplePredecComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Predec; }
    std::string_view displayName() const override { return "SimplePredec"; }
    double
    bound(const PredictContext &ctx) const override
    {
        return simplePredec(ctx.blk);
    }
    double
    cheapUpperBound(const PredictContext &ctx) const override
    {
        return bound(ctx);
    }
    Notions notions() const override { return {true, false}; }
};

class DecComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Dec; }
    double
    bound(const PredictContext &ctx) const override
    {
        return dec(ctx.blk, ctx.scratch.dec);
    }
    Notions notions() const override { return {true, false}; }
};

class SimpleDecComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Dec; }
    std::string_view displayName() const override { return "SimpleDec"; }
    double
    bound(const PredictContext &ctx) const override
    {
        return simpleDec(ctx.blk);
    }
    Notions notions() const override { return {true, false}; }
};

class DsbComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::DSB; }
    double
    bound(const PredictContext &ctx) const override
    {
        return dsb(ctx.blk);
    }
    double
    cheapUpperBound(const PredictContext &ctx) const override
    {
        return bound(ctx);
    }
    Notions notions() const override { return {false, true}; }
};

class LsdComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::LSD; }
    double
    bound(const PredictContext &ctx) const override
    {
        return lsd(ctx.blk);
    }
    double
    cheapUpperBound(const PredictContext &ctx) const override
    {
        return bound(ctx);
    }
    Notions notions() const override { return {false, true}; }
};

class IssueComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Issue; }
    double
    bound(const PredictContext &ctx) const override
    {
        return issue(ctx.blk);
    }
    double
    cheapUpperBound(const PredictContext &ctx) const override
    {
        return bound(ctx);
    }
    Notions notions() const override { return {true, true}; }
};

class PortsComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Ports; }

    double
    bound(const PredictContext &ctx) const override
    {
        return ports(ctx.blk, ctx.scratch.ports, false).throughput;
    }

    double
    cheapUpperBound(const PredictContext &ctx) const override
    {
        // All port µops forced onto a single port. O(n) over the
        // annotations, no combination search.
        int uops = 0;
        for (const auto &ai : ctx.blk.insts) {
            if (ai.fusedWithPrev || ai.info->eliminated)
                continue;
            if (ai.rec) {
                uops += static_cast<int>(ai.rec->portMasks.size());
            } else {
                for (const auto &u : ai.info->portUops)
                    if (u.ports)
                        ++uops;
            }
        }
        return static_cast<double>(uops);
    }

    void
    explain(const PredictContext &ctx, Prediction &out) const override
    {
        PortsResult pr = ports(ctx.blk, ctx.scratch.ports, true);
        out.contendedPorts = pr.bottleneckPorts;
        out.contendingInsts = std::move(pr.contendingInsts);
    }

    double
    boundWithExplain(const PredictContext &ctx,
                     Prediction &out) const override
    {
        PortsResult pr = ports(ctx.blk, ctx.scratch.ports, true);
        out.contendedPorts = pr.bottleneckPorts;
        out.contendingInsts = std::move(pr.contendingInsts);
        return pr.throughput;
    }

    Notions notions() const override { return {true, true}; }
};

class PrecedenceComponent final : public ComponentPredictor
{
  public:
    Component id() const override { return Component::Precedence; }

    double
    bound(const PredictContext &ctx) const override
    {
        bool shortCircuited = false;
        const double v = precedenceBound(ctx.blk, ctx.scratch.precedence,
                                         &shortCircuited);
        bump(kPrecedenceEvals);
        if (shortCircuited)
            bump(kPrecedenceShortCircuits);
        return v;
    }

    void
    explain(const PredictContext &ctx, Prediction &out) const override
    {
        PrecedenceResult pr = precedence(ctx.blk, ctx.scratch.precedence);
        out.criticalChain = std::move(pr.criticalChain);
    }

    double
    boundWithExplain(const PredictContext &ctx,
                     Prediction &out) const override
    {
        PrecedenceResult pr = precedence(ctx.blk, ctx.scratch.precedence);
        out.criticalChain = std::move(pr.criticalChain);
        bump(kPrecedenceEvals);
        return pr.throughput;
    }

    Notions notions() const override { return {true, true}; }
};

const PredecComponent kPredec{};
const SimplePredecComponent kSimplePredec{};
const DecComponent kDec{};
const SimpleDecComponent kSimpleDec{};
const DsbComponent kDsb{};
const LsdComponent kLsd{};
const IssueComponent kIssue{};
const PortsComponent kPorts{};
const PrecedenceComponent kPrecedence{};

} // namespace

std::string_view
ComponentPredictor::displayName() const
{
    return componentName(id());
}

double
ComponentPredictor::cheapUpperBound(const PredictContext &) const
{
    return kInf;
}

void
ComponentPredictor::explain(const PredictContext &, Prediction &) const
{}

double
ComponentPredictor::boundWithExplain(const PredictContext &ctx,
                                     Prediction &out) const
{
    const double v = bound(ctx);
    explain(ctx, out);
    return v;
}

const ComponentPredictor &
component(Component c)
{
    switch (c) {
      case Component::Predec: return kPredec;
      case Component::Dec: return kDec;
      case Component::DSB: return kDsb;
      case Component::LSD: return kLsd;
      case Component::Issue: return kIssue;
      case Component::Ports: return kPorts;
      case Component::Precedence: return kPrecedence;
      case Component::kNumComponents: break;
    }
    throw std::invalid_argument("component(): bad Component");
}

const ComponentPredictor &
simpleVariant(Component c)
{
    if (c == Component::Predec)
        return kSimplePredec;
    if (c == Component::Dec)
        return kSimpleDec;
    throw std::invalid_argument("simpleVariant(): only Predec and Dec "
                                "have Simple* substitutes");
}

Registry::Registry(uarch::UArch arch) : arch_(arch)
{
    const uarch::MicroArchConfig &cfg = uarch::config(arch);

    // The primary component set of this arch, in enum order. The LSD
    // exists only where the hardware has it enabled (SKL150 disables
    // it on SKL/CLX).
    for (int c = 0; c < kNumComponents; ++c) {
        const Component comp = static_cast<Component>(c);
        if (comp == Component::LSD && !cfg.lsdEnabled)
            continue;
        components_.push_back(&component(comp));
    }

    // Resolve every ModelConfig bit pattern to its view once, so the
    // per-call driver never branches on config flags.
    views_.resize(kNumViews);
    for (std::size_t bits = 0; bits < kNumViews; ++bits) {
        const ModelConfig config =
            ModelConfig::fromBits(static_cast<std::uint16_t>(bits));
        RegistryView &v = views_[bits];
        if (config.usePredec)
            v.front[v.nFront++] =
                config.simplePredec
                    ? static_cast<const ComponentPredictor *>(&kSimplePredec)
                    : &kPredec;
        if (config.useDec)
            v.front[v.nFront++] =
                config.simpleDec
                    ? static_cast<const ComponentPredictor *>(&kSimpleDec)
                    : &kDec;
        v.lsd = cfg.lsdEnabled && config.useLsd ? &kLsd : nullptr;
        v.dsb = config.useDsb ? &kDsb : nullptr;
        v.issue = config.useIssue ? &kIssue : nullptr;
        v.ports = config.usePorts ? &kPorts : nullptr;
        v.precedence = config.usePrecedence ? &kPrecedence : nullptr;
        v.jccPossible = cfg.jccErratum;
    }
}

const Registry &
Registry::forArch(uarch::UArch arch)
{
    // One static registry per arch, built on first use (thread-safe
    // magic statics), immutable afterwards.
    static const Registry registries[] = {
        Registry(uarch::UArch::SNB), Registry(uarch::UArch::IVB),
        Registry(uarch::UArch::HSW), Registry(uarch::UArch::BDW),
        Registry(uarch::UArch::SKL), Registry(uarch::UArch::CLX),
        Registry(uarch::UArch::ICL), Registry(uarch::UArch::TGL),
        Registry(uarch::UArch::RKL),
    };
    // Fast path assumes the array is in enum order; the arch() check
    // (plus the scan fallback) keeps a future enum reorder or
    // extension from silently returning the wrong registry.
    const auto idx = static_cast<std::size_t>(arch);
    if (idx < std::size(registries) && registries[idx].arch() == arch)
        return registries[idx];
    for (const Registry &r : registries)
        if (r.arch() == arch)
            return r;
    throw std::invalid_argument("Registry::forArch: unknown arch");
}

PredictScratch &
tlsPredictScratch()
{
    thread_local PredictScratch s;
    return s;
}

std::vector<AblationVariant>
ablationVariants()
{
    std::vector<AblationVariant> v;
    v.push_back({"Facile", {}, true, true});

    // Simple* substitution rows, derived from the components that have
    // a simple variant (TPU rows in the paper).
    for (Component c : {Component::Predec, Component::Dec}) {
        ModelConfig cfg;
        (c == Component::Predec ? cfg.simplePredec : cfg.simpleDec) = true;
        v.push_back({"Facile w/ " +
                         std::string(simpleVariant(c).displayName()),
                     cfg, true, false});
    }

    // "only X": one row per component, marked per notion from the
    // component's own metadata.
    for (int c = 0; c < kNumComponents; ++c) {
        const Component comp = static_cast<Component>(c);
        const ComponentPredictor::Notions n = component(comp).notions();
        v.push_back({"only " + std::string(componentName(comp)),
                     ModelConfig::only(comp), n.unrolled, n.loop});
    }

    // Combination rows of Table 3.
    ModelConfig predecPorts = ModelConfig::only(Component::Predec);
    predecPorts.usePorts = true;
    v.push_back({"only Predec+Ports", predecPorts, true, false});

    ModelConfig precPorts = ModelConfig::only(Component::Precedence);
    precPorts.usePorts = true;
    v.push_back({"only Precedence+Ports", precPorts, true, true});

    // "w/o X" leave-one-out rows.
    for (int c = 0; c < kNumComponents; ++c) {
        const Component comp = static_cast<Component>(c);
        const ComponentPredictor::Notions n = component(comp).notions();
        v.push_back({"Facile w/o " + std::string(componentName(comp)),
                     ModelConfig::without(comp), n.unrolled, n.loop});
    }
    return v;
}

PredictCountersSnapshot
predictCounters()
{
    PredictCountersSnapshot s;
    s.boundPredicts = PredictCounters::sum(kBoundPredicts);
    s.fullPredicts = PredictCounters::sum(kFullPredicts);
    s.explainCalls = PredictCounters::sum(kExplainCalls);
    s.precedenceEvals = PredictCounters::sum(kPrecedenceEvals);
    s.precedenceShortCircuits = PredictCounters::sum(kPrecedenceShortCircuits);
    return s;
}

namespace detail {

void
countPredict(Payload payload)
{
    bump(payload == Payload::Full ? kFullPredicts : kBoundPredicts);
}

void
countExplain()
{
    bump(kExplainCalls);
}

} // namespace detail

} // namespace facile::model
