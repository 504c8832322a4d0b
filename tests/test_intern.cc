/**
 * @file
 * Tests for the instruction interning cache (src/analysis/intern.h) and
 * the interned block analysis built on it.
 *
 * The core contract: analysis through the shared intern cache is
 * bit-identical to fresh (intern-disabled) analysis — same predictions,
 * same annotations — over randomized BHive blocks on all nine
 * microarchitectures, including under concurrent hammering from the
 * engine worker pool (the concurrency tests run under TSan in CI).
 * Records are keyed on instruction forms, so a sweep over immediate and
 * displacement values must publish one record per form and still
 * predict exactly what the real bytes predict. The file replaces the
 * global operator new to count allocations per thread: a window miss
 * on a known form must allocate nothing.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <set>
#include <string>
#include <thread>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "facile/component.h"
#include "facile/predictor.h"

namespace {

/** operator new calls made by the calling thread (all of them). */
thread_local std::size_t tlsNews = 0;

} // namespace

// Counting replacements of the global allocation functions; the array
// and nothrow forms forward to these.
void *
operator new(std::size_t n)
{
    ++tlsNews;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    ++tlsNews;
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

// Not inlined, so the compiler does not pair a new-expression with the
// free() inside (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace facile {
namespace {

using eval::samePrediction;

/** Value equality of two InstrInfos (they have no operator==). */
bool
sameInfo(const uops::InstrInfo &a, const uops::InstrInfo &b)
{
    if (a.fusedUops != b.fusedUops || a.issueUops != b.issueUops ||
        a.latency != b.latency ||
        a.needsComplexDecoder != b.needsComplexDecoder ||
        a.nAvailableSimpleDecoders != b.nAvailableSimpleDecoders ||
        a.macroFusible != b.macroFusible || a.eliminated != b.eliminated)
        return false;
    if (a.portUops.size() != b.portUops.size())
        return false;
    for (std::size_t i = 0; i < a.portUops.size(); ++i)
        if (a.portUops[i].ports != b.portUops[i].ports ||
            a.portUops[i].kind != b.portUops[i].kind)
            return false;
    return true;
}

/** A randomized suite distinct from the default evaluation seed. */
const std::vector<bhive::Benchmark> &
randomSuite()
{
    static const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(0xfac11e5eedULL, 6);
    return suite;
}

TEST(Intern, BitIdenticalToFreshAnalysisAllArches)
{
    for (uarch::UArch arch : uarch::allUArchs()) {
        for (const auto &b : randomSuite()) {
            for (const auto *bytes : {&b.bytesU, &b.bytesL}) {
                bb::BasicBlock shared = bb::analyze(*bytes, arch);
                bb::BasicBlock fresh =
                    bb::analyze(*bytes, arch, bb::InternMode::Off);

                ASSERT_EQ(shared.insts.size(), fresh.insts.size());
                for (std::size_t i = 0; i < shared.insts.size(); ++i) {
                    const auto &si = shared.insts[i];
                    const auto &fi = fresh.insts[i];
                    EXPECT_EQ(si.start, fi.start);
                    EXPECT_EQ(si.end, fi.end);
                    EXPECT_EQ(si.opcodePos, fi.opcodePos);
                    EXPECT_EQ(si.fusedWithPrev, fi.fusedWithPrev);
                    EXPECT_EQ(si.dec->length, fi.dec->length);
                    EXPECT_EQ(si.dec->lcp, fi.dec->lcp);
                    EXPECT_TRUE(sameInfo(*si.info, *fi.info));
                    // Off-mode blocks carry no precomputed sets (the
                    // pre-interning path computed them per call);
                    // interned sets must equal a fresh computation.
                    EXPECT_EQ(fi.rw, nullptr);
                    const isa::RwSets freshRw =
                        isa::instRw(fi.dec->inst);
                    EXPECT_EQ(si.rw->reads, freshRw.reads);
                    EXPECT_EQ(si.rw->writes, freshRw.writes);
                    EXPECT_EQ(si.rw->depBreaking, freshRw.depBreaking);
                }

                for (bool loop : {false, true}) {
                    model::Prediction ps =
                        model::predict(shared, loop, {});
                    model::Prediction pf = model::predict(fresh, loop, {});
                    EXPECT_TRUE(samePrediction(ps, pf))
                        << b.id << " " << uarch::config(arch).abbrev
                        << " loop=" << loop;
                }
            }
        }
    }
}

TEST(Intern, RepeatedAnalysisSharesRecords)
{
    const auto &b = randomSuite().front();
    bb::BasicBlock first = bb::analyze(b.bytesL, uarch::UArch::SKL);
    bb::BasicBlock second = bb::analyze(b.bytesL, uarch::UArch::SKL);
    ASSERT_EQ(first.insts.size(), second.insts.size());
    for (std::size_t i = 0; i < first.insts.size(); ++i) {
        // Same arena records: pointer-equal annotations, no per-block
        // copies (this is what makes the cold path allocation-free).
        EXPECT_EQ(first.insts[i].dec, second.insts[i].dec);
        EXPECT_EQ(first.insts[i].info, second.insts[i].info);
        EXPECT_EQ(first.insts[i].rw, second.insts[i].rw);
    }
    EXPECT_FALSE(first.ownedRecords);
}

TEST(Intern, MissesBoundedByInstructionUniverse)
{
    const auto &b = randomSuite().back();
    (void)bb::analyze(b.bytesL, uarch::UArch::RKL);
    const auto before =
        analysis::InstInterner::forArch(uarch::UArch::RKL).stats();
    // Re-analyzing the same block cannot create new canonical records.
    (void)bb::analyze(b.bytesL, uarch::UArch::RKL);
    const auto after =
        analysis::InstInterner::forArch(uarch::UArch::RKL).stats();
    EXPECT_EQ(before.misses, after.misses);
    EXPECT_EQ(before.fusedMisses, after.fusedMisses);
    EXPECT_GT(after.hits, before.hits);
}

TEST(Intern, MutableInfoIsCopyOnWrite)
{
    const auto &b = randomSuite().front();
    bb::BasicBlock blk = bb::analyze(b.bytesU, uarch::UArch::SKL);
    bb::BasicBlock copy = blk;

    const int origLatency = blk.insts[0].info->latency;
    copy.mutableInfo(0).latency = origLatency + 7;

    // The copy sees its mutation; the original and the shared arena
    // do not.
    EXPECT_EQ(copy.insts[0].info->latency, origLatency + 7);
    EXPECT_EQ(blk.insts[0].info->latency, origLatency);
    bb::BasicBlock again = bb::analyze(b.bytesU, uarch::UArch::SKL);
    EXPECT_EQ(again.insts[0].info->latency, origLatency);
}

/**
 * Hammer the intern cache from the engine pool: concurrent first-touch
 * interning (misses racing on insert) and concurrent hits, across
 * multiple microarchitectures, with bit-identity against fresh serial
 * analysis. TSan-clean by contract.
 */
TEST(Intern, ConcurrentEngineHammer)
{
    const auto &suite = randomSuite();
    const std::vector<uarch::UArch> arches = {
        uarch::UArch::SNB, uarch::UArch::HSW, uarch::UArch::SKL,
        uarch::UArch::ICL, uarch::UArch::RKL,
    };

    std::vector<engine::Request> batch;
    for (uarch::UArch arch : arches)
        for (const auto &b : suite) {
            batch.push_back({b.bytesU, arch, false, {}});
            batch.push_back({b.bytesL, arch, true, {}});
        }

    std::vector<model::Prediction> reference(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        // Engine requests default to the cheap bound-only path; the
        // fresh-analysis oracle must match that payload depth.
        model::PredictScratch scratch;
        reference[i] = model::predict(
            bb::analyze(batch[i].bytes, batch[i].arch, bb::InternMode::Off),
            batch[i].loop, batch[i].config, scratch, batch[i].payload);
    }

    engine::PredictionEngine::Options opts;
    opts.numThreads = 4;
    opts.cacheEnabled = false; // every pass re-analyzes through the interner
    engine::PredictionEngine eng(opts);

    for (int pass = 0; pass < 3; ++pass) {
        std::vector<model::Prediction> out = eng.predictBatch(batch);
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_TRUE(samePrediction(out[i], reference[i]))
                << "pass " << pass << " request " << i;
    }
}

/** Raw concurrent internAt on one arch: all threads get equal records. */
TEST(Intern, ConcurrentInternPointerStability)
{
    const auto &b = randomSuite()[1];
    analysis::InstInterner &interner =
        analysis::InstInterner::forArch(uarch::UArch::TGL);

    constexpr int kThreads = 4;
    std::vector<std::vector<const analysis::InstRecord *>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 50; ++rep) {
                std::size_t pos = 0;
                std::size_t idx = 0;
                while (pos < b.bytesL.size()) {
                    const analysis::InstRecord *rec = interner.internAt(
                        b.bytesL.data(), b.bytesL.size(), pos);
                    if (rep == 0)
                        seen[t].push_back(rec);
                    else
                        ASSERT_EQ(seen[t][idx], rec);
                    pos += rec->dec.length;
                    ++idx;
                }
            }
        });
    for (auto &th : threads)
        th.join();

    // Canonical records: every thread resolved every instruction to the
    // same arena pointer.
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0], seen[t]);
}

using Bytes = std::vector<std::uint8_t>;

/** @p head followed by the low @p width bytes of @p v, little-endian. */
Bytes
withValue(Bytes head, std::int64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        head.push_back(static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(v) >> (8 * i)));
    return head;
}

/** Instances that must share one record: encodings of one form. */
struct Form
{
    std::string name;
    std::vector<Bytes> instances;
};

/**
 * Value sweeps over the immediate and displacement of every kind of
 * instruction that carries one: ALU and MOV immediates of each width,
 * disp8/disp32 with zero and non-zero values (including the mandatory
 * disp8 of [rbp+0]/[r13+0]), the 3-component LEA whose speed depends
 * on disp != 0, relative branch targets, 16-bit immediates behind a
 * length-changing prefix, and shift counts.
 */
std::vector<Form>
sweepForms()
{
    const std::int64_t imms[] = {0, 1, -1, 127, 128, INT32_MAX};
    const std::int64_t disp8[] = {1, -128, 127, 0x40};
    const std::int64_t disp32[] = {0x1000, -0x1000, 128, INT32_MAX};
    std::vector<Form> forms;
    auto sweep = [&](const std::string &name, const Bytes &head,
                     const auto &values, int width) {
        Form f{name, {}};
        for (std::int64_t v : values)
            f.instances.push_back(withValue(head, v, width));
        forms.push_back(std::move(f));
    };
    auto single = [&](const std::string &name, const Bytes &bytes) {
        forms.push_back({name, {bytes}});
    };

    sweep("add rax, imm8", {0x48, 0x83, 0xC0}, imms, 1);
    sweep("add rax, imm32", {0x48, 0x81, 0xC0}, imms, 4);
    sweep("mov rax, imm64", {0x48, 0xB8},
          std::array<std::int64_t, 4>{0, -1, INT32_MAX, 0x123456789LL}, 8);
    sweep("imul edx, ecx, imm32", {0x69, 0xD1}, imms, 4);
    sweep("test ecx, imm32", {0xF7, 0xC1}, imms, 4);
    sweep("push imm8", {0x6A}, imms, 1);
    sweep("push imm32", {0x68}, imms, 4);
    {
        // Memory + immediate: both values masked.
        Form f{"cmp dword [rbx+disp8], imm8", {}};
        for (std::int64_t d : disp8)
            for (std::int64_t v : imms)
                f.instances.push_back(
                    withValue(withValue({0x83, 0x7B}, d, 1), v, 1));
        forms.push_back(std::move(f));
    }
    sweep("mov dword [rbx+disp32], imm32",
          withValue({0xC7, 0x83}, 0x1000, 4), imms, 4);

    single("mov ecx, [rbx]", {0x8B, 0x0B});
    sweep("mov ecx, [rbx+disp8]", {0x8B, 0x4B}, disp8, 1);
    single("mov ecx, [rbx+0] (disp8)", {0x8B, 0x4B, 0x00});
    sweep("mov ecx, [rbx+disp32]", {0x8B, 0x8B}, disp32, 4);
    single("mov ecx, [rbx+0] (disp32)", {0x8B, 0x8B, 0, 0, 0, 0});
    single("mov ecx, [rbp+0]", {0x8B, 0x4D, 0x00});
    sweep("mov ecx, [rbp+disp8]", {0x8B, 0x4D}, disp8, 1);
    single("mov ecx, [r13+0]", {0x41, 0x8B, 0x4D, 0x00});
    sweep("mov ecx, [r13+disp8]", {0x41, 0x8B, 0x4D}, disp8, 1);

    // 3-component LEA: disp == 0 is fast, disp != 0 slow — two forms
    // per displacement width.
    single("lea rax, [rbx+rcx*4+0] (disp8)", {0x48, 0x8D, 0x44, 0x8B, 0});
    sweep("lea rax, [rbx+rcx*4+disp8]", {0x48, 0x8D, 0x44, 0x8B}, disp8, 1);
    single("lea rax, [rbx+rcx*4+0] (disp32)",
           {0x48, 0x8D, 0x84, 0x8B, 0, 0, 0, 0});
    sweep("lea rax, [rbx+rcx*4+disp32]", {0x48, 0x8D, 0x84, 0x8B}, disp32,
          4);

    sweep("jne rel8", {0x75},
          std::array<std::int64_t, 5>{0, 1, -2, 127, -128}, 1);
    sweep("jne rel32", {0x0F, 0x85},
          std::array<std::int64_t, 4>{0, 128, -1000, INT32_MAX}, 4);
    sweep("jmp rel8", {0xEB}, imms, 1);
    sweep("call rel32", {0xE8}, imms, 4);

    const std::array<std::int64_t, 5> imm16 = {0, 1, 0x7FFF, -1, 0x1234};
    sweep("add ax, imm16 (LCP)", {0x66, 0x81, 0xC0}, imm16, 2);
    sweep("add word [rbx+disp8], imm16 (LCP)",
          withValue({0x66, 0x81, 0x43}, 8, 1), imm16, 2);

    sweep("shl rax, imm8", {0x48, 0xC1, 0xE0},
          std::array<std::int64_t, 5>{0, 1, 5, 63, 255}, 1);
    single("shl rax, 1", {0x48, 0xD1, 0xE0});
    sweep("pslld xmm1, imm8", {0x66, 0x0F, 0x72, 0xF1}, imms, 1);
    sweep("shufps xmm0, xmm1, imm8", {0x0F, 0xC6, 0xC1}, imms, 1);
    return forms;
}

/** The 16-byte canonical-map key of the instruction @p b. */
std::array<std::uint8_t, 16>
formKey(const Bytes &b)
{
    const isa::DecodedInst d = isa::decodeOne(b.data(), b.size());
    std::array<std::uint8_t, 16> k{};
    isa::canonicalForm(b.data(), d, k.data());
    k[15] = d.length;
    return k;
}

/** The keys of every record @p arch's interner holds. */
std::set<std::array<std::uint8_t, 16>>
internedKeys(uarch::UArch arch)
{
    std::set<std::array<std::uint8_t, 16>> keys;
    analysis::InstInterner::forArch(arch).exportRecords(
        [&](const std::uint8_t *bytes, std::size_t len,
            const analysis::InstRecord &) {
            std::array<std::uint8_t, 16> k{};
            std::memcpy(k.data(), bytes, len);
            k[15] = static_cast<std::uint8_t>(len);
            keys.insert(k);
        });
    return keys;
}

/**
 * A block around @p inst: a branch is preceded by a fusible cmp, any
 * other instruction followed by a test/jne back edge.
 */
Bytes
blockAround(const Bytes &inst)
{
    const isa::DecodedInst d = isa::decodeOne(inst.data(), inst.size());
    if (d.inst.isBranch() || d.inst.mnem == isa::Mnemonic::CALL) {
        Bytes b = {0x48, 0x39, 0xD8}; // cmp rax, rbx
        b.insert(b.end(), inst.begin(), inst.end());
        return b;
    }
    Bytes b = inst;
    b.insert(b.end(), {0x85, 0xC9, 0x75, 0xF0}); // test ecx, ecx; jne
    return b;
}

TEST(InternForms, ValueSweepPublishesOneRecordPerForm)
{
    const std::vector<Form> forms = sweepForms();
    for (uarch::UArch arch : uarch::allUArchs()) {
        const char *name = uarch::config(arch).abbrev;
        analysis::InstInterner &in = analysis::InstInterner::forArch(arch);
        const auto known = internedKeys(arch);
        std::size_t fresh = 0;
        for (const Form &f : forms)
            fresh += known.count(formKey(f.instances.front())) == 0;

        const analysis::InternStats before = in.stats();
        std::set<const analysis::InstRecord *> distinct;
        for (const Form &f : forms) {
            const analysis::InstRecord *first = nullptr;
            for (const Bytes &b : f.instances) {
                const analysis::InstRecord *rec =
                    in.internAt(b.data(), b.size(), 0);
                ASSERT_EQ(rec->dec.length, b.size()) << f.name;
                if (!first)
                    first = rec;
                EXPECT_EQ(rec, first) << name << " " << f.name;
            }
            distinct.insert(first);
        }
        const analysis::InternStats after = in.stats();
        EXPECT_EQ(distinct.size(), forms.size()) << name;
        EXPECT_EQ(after.records - before.records, fresh) << name;

        // Once blockAround's own cmp/test/jne are interned, a second
        // sweep over the same forms publishes nothing.
        (void)bb::analyze(blockAround(forms.front().instances.front()),
                          arch);
        (void)bb::analyze(blockAround({0x75, 0x00}), arch);
        const std::uint64_t settled = in.stats().records;
        for (const Form &f : forms)
            for (const Bytes &b : f.instances)
                (void)bb::analyze(blockAround(b), arch);
        EXPECT_EQ(in.stats().records, settled) << name;

        // Predictions equal those from decoding the real bytes, for
        // every instance, notion and payload depth.
        for (const Form &f : forms)
            for (const Bytes &b : f.instances) {
                const Bytes blk = blockAround(b);
                const bb::BasicBlock shared = bb::analyze(blk, arch);
                const bb::BasicBlock off =
                    bb::analyze(blk, arch, bb::InternMode::Off);
                for (bool loop : {false, true}) {
                    EXPECT_TRUE(samePrediction(model::predict(shared, loop),
                                               model::predict(off, loop)))
                        << name << " " << f.name << " loop=" << loop;
                    model::PredictScratch s1, s2;
                    EXPECT_TRUE(samePrediction(
                        model::predict(shared, loop, {}, s1),
                        model::predict(off, loop, {}, s2)))
                        << name << " " << f.name << " loop=" << loop;
                }
            }
    }
}

TEST(InternForms, LeaDisplacementZeroAndNonZeroAreTwoRecords)
{
    const Bytes fast8 = {0x48, 0x8D, 0x44, 0x8B, 0x00};
    const Bytes slow8 = {0x48, 0x8D, 0x44, 0x8B, 0x20};
    const Bytes fast32 = {0x48, 0x8D, 0x84, 0x8B, 0, 0, 0, 0};
    const Bytes slow32 = {0x48, 0x8D, 0x84, 0x8B, 0, 0, 0, 0x80};
    for (uarch::UArch arch : uarch::allUArchs()) {
        analysis::InstInterner &in = analysis::InstInterner::forArch(arch);
        auto rec = [&](const Bytes &b) {
            return in.internAt(b.data(), b.size(), 0);
        };
        EXPECT_NE(rec(fast8), rec(slow8));
        EXPECT_NE(rec(fast32), rec(slow32));
        EXPECT_EQ(rec(fast8)->info.latency, 1);
        EXPECT_EQ(rec(slow8)->info.latency, 3);
        EXPECT_EQ(rec(fast32)->info.latency, 1);
        EXPECT_EQ(rec(slow32)->info.latency, 3);
        // The canonical displacement keeps only "non-zero".
        EXPECT_EQ(rec(slow8)->dec.inst.ops[1].mem.disp, 1);
        EXPECT_EQ(rec(slow32)->dec.inst.ops[1].mem.disp, 1);
    }
}

/**
 * Threads race to publish *different* instances of one never-seen
 * form: every thread must get the same record, and the form costs
 * exactly one record.
 */
TEST(InternForms, RacingInstancesOfOneFormShareOneRecord)
{
    constexpr int kThreads = 4;
    analysis::InstInterner &in =
        analysis::InstInterner::forArch(uarch::UArch::CLX);
    for (int dst = 0; dst < 8; ++dst)
        for (int src = 0; src < 8; ++src) {
            // imul r32, r32, imm32: one form per register pair.
            const auto modrm =
                static_cast<std::uint8_t>(0xC0 | dst << 3 | src);
            std::vector<Bytes> insts;
            for (int t = 0; t < kThreads; ++t)
                insts.push_back(
                    withValue({0x69, modrm}, 1000 * t + dst * 8 + src, 4));
            const bool known =
                internedKeys(uarch::UArch::CLX).count(formKey(insts[0])) != 0;
            const std::uint64_t before = in.stats().records;

            std::atomic<int> ready{0};
            std::vector<const analysis::InstRecord *> got(kThreads);
            std::vector<std::thread> threads;
            for (int t = 0; t < kThreads; ++t)
                threads.emplace_back([&, t] {
                    ready.fetch_add(1);
                    while (ready.load() < kThreads)
                        std::this_thread::yield();
                    got[t] = in.internAt(insts[t].data(), insts[t].size(),
                                         0);
                });
            for (auto &th : threads)
                th.join();
            for (int t = 1; t < kThreads; ++t)
                EXPECT_EQ(got[t], got[0]) << dst << "," << src;
            EXPECT_EQ(in.stats().records - before, known ? 0u : 1u)
                << dst << "," << src;
        }
}

/**
 * Forms no other test interns (registers r8-r15), so their records are
 * first published by the child processes below.
 */
std::vector<Form>
orderForms()
{
    const std::int64_t imms[] = {1, -1, 0x55, 128, INT32_MAX};
    std::vector<Form> forms;
    auto sweep = [&](const std::string &name, const Bytes &head,
                     int width) {
        Form f{name, {}};
        for (std::int64_t v : imms)
            f.instances.push_back(withValue(head, v, width));
        forms.push_back(std::move(f));
    };
    sweep("add r9, imm32", {0x49, 0x81, 0xC1}, 4);
    sweep("mov r10d, [r11+r12*2+disp8]", {0x47, 0x8B, 0x54, 0x63}, 1);
    sweep("lea r13, [r14+r15*8+disp32]", {0x4F, 0x8D, 0xAC, 0xFE}, 4);
    sweep("shl r11, imm8", {0x49, 0xC1, 0xE3}, 1);
    sweep("test r12w, imm16", {0x66, 0x41, 0xF7, 0xC4}, 2);
    sweep("cmp dword [r9+disp8], imm8", {0x41, 0x83, 0x79, 0x08}, 1);
    return forms;
}

/**
 * The interned universe does not depend on which instance of a form a
 * process saw first: two child processes intern the instances of
 * never-seen forms in opposite orders, then report their record keys
 * (exportRecords) and a digest of every instance's predictions, and
 * the two reports must be identical.
 */
TEST(InternForms, UniverseIsIndependentOfInstanceOrder)
{
    const std::vector<Form> forms = orderForms();
    const uarch::UArch arches[] = {uarch::UArch::SKL, uarch::UArch::ICL,
                                   uarch::UArch::HSW};
    for (uarch::UArch arch : arches) {
        const auto known = internedKeys(arch);
        for (const Form &f : forms)
            for (const Bytes &b : f.instances)
                ASSERT_EQ(known.count(formKey(b)), 0u) << f.name;
    }
    const std::string dir = ::testing::TempDir();
    const std::string paths[2] = {
        dir + "intern_order_" + std::to_string(::getpid()) + "_fwd.txt",
        dir + "intern_order_" + std::to_string(::getpid()) + "_rev.txt"};
    for (int order = 0; order < 2; ++order) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int rc = 1;
            try {
                for (uarch::UArch arch : arches)
                    for (const Form &f : forms) {
                        std::vector<Bytes> seq = f.instances;
                        if (order == 1)
                            std::reverse(seq.begin(), seq.end());
                        for (const Bytes &b : seq)
                            (void)bb::analyze(b, arch);
                    }
                // Keys in set order, then every instance's TPU and TPL
                // prediction bits in one fixed order.
                std::string report;
                std::uint64_t h = analysis::fnv1a64(nullptr, 0);
                for (uarch::UArch arch : arches) {
                    for (const auto &key : internedKeys(arch))
                        report.append(key.begin(), key.end());
                    for (const Form &f : forms)
                        for (const Bytes &b : f.instances)
                            for (bool loop : {false, true}) {
                                const model::Prediction p = model::predict(
                                    bb::analyze(b, arch), loop, {});
                                h = analysis::fnv1a64(
                                    reinterpret_cast<const std::uint8_t *>(
                                        &p.throughput),
                                    8, h);
                                h = analysis::fnv1a64(
                                    reinterpret_cast<const std::uint8_t *>(
                                        p.componentValue.data()),
                                    sizeof(double) * p.componentValue.size(),
                                    h);
                            }
                }
                report.append(reinterpret_cast<const char *>(&h), 8);
                std::FILE *out = std::fopen(paths[order].c_str(), "wb");
                if (out &&
                    std::fwrite(report.data(), 1, report.size(), out) ==
                        report.size() &&
                    std::fclose(out) == 0)
                    rc = 0;
            } catch (...) {
            }
            ::_exit(rc);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child " << order;
    }
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in), {});
    };
    const std::vector<char> fwd = slurp(paths[0]);
    const std::vector<char> rev = slurp(paths[1]);
    std::remove(paths[0].c_str());
    std::remove(paths[1].c_str());
    ASSERT_GT(fwd.size(), 8u);
    EXPECT_TRUE(fwd == rev) << "reports differ: " << fwd.size() << " vs "
                            << rev.size() << " bytes";
}


/**
 * Distinct instruction forms `op r, [base+index*scale+disp]`, differing
 * in opcode, REX.W, destination, base, index, scale and displacement
 * width (none, disp8, disp32).
 */
std::vector<Bytes>
memoryForms(std::size_t count)
{
    const std::uint8_t ops[] = {0x8B, 0x03, 0x2B, 0x33,
                                0x23, 0x0B, 0x3B, 0x85};
    std::vector<Bytes> forms;
    for (std::uint32_t n = 0; forms.size() < count; ++n) {
        const int dispKind = n % 3;
        const int sc = (n / 3) % 4;
        const int idx = (n / 12) % 16;
        const int bas = (n / 192) % 16;
        const int dst = (n / 3072) % 16;
        const int w = (n / 49152) % 2;
        const std::uint8_t op = ops[(n / 98304) % 8];
        // No-index and base-less SIB encodings are other shapes.
        if (idx == 4 || (dispKind == 0 && (bas & 7) == 5))
            continue;
        Bytes f{static_cast<std::uint8_t>(0x40 | w << 3 | (dst >> 3) << 2 |
                                          (idx >> 3) << 1 | bas >> 3),
                op,
                static_cast<std::uint8_t>(dispKind << 6 | (dst & 7) << 3 | 4),
                static_cast<std::uint8_t>(sc << 6 | (idx & 7) << 3 |
                                          (bas & 7))};
        if (dispKind == 1)
            f.push_back(0x10);
        else if (dispKind == 2)
            f.insert(f.end(), {0x00, 0x10, 0x00, 0x00});
        forms.push_back(std::move(f));
    }
    return forms;
}

/**
 * Form @p f followed by filler bytes derived from @p salt: a different
 * salt is a different decode window, so interning it misses the
 * thread's window cache and probes the canonical index.
 */
Bytes
salted(const Bytes &f, std::uint32_t salt)
{
    Bytes buf = f;
    for (int k = 0; k < 15; ++k)
        buf.push_back(static_cast<std::uint8_t>(salt >> (8 * (k % 4)) ^ k));
    return buf;
}

const analysis::InstRecord *
internSalted(analysis::InstInterner &in, const Bytes &f, std::uint32_t salt)
{
    const Bytes buf = salted(f, salt);
    return in.internAt(buf.data(), buf.size(), 0);
}

/**
 * Readers probe the lock-free canonical index while a writer publishes
 * thousands of never-seen forms, enough to double every shard's table
 * several times. Every reader gets the record the serial reference
 * names, each form costs exactly one record, and every call counts as
 * exactly one hit or miss.
 */
TEST(InternIndex, ReadersRacingGrowthGetThePublishedRecord)
{
    const uarch::UArch arch = uarch::UArch::IVB;
    analysis::InstInterner &in = analysis::InstInterner::forArch(arch);
    const auto known = internedKeys(arch);
    std::vector<Bytes> forms;
    for (Bytes &f : memoryForms(4096))
        if (!known.count(formKey(f)))
            forms.push_back(std::move(f));
    // About 190 per shard: five doublings of a 16-slot table.
    ASSERT_GE(forms.size(), 3000u);
    const analysis::InternStats before = in.stats();

    constexpr int kReaders = 3;
    std::atomic<std::size_t> published{0};
    std::atomic<bool> writerDone{false};
    std::vector<const analysis::InstRecord *> byWriter(forms.size());
    std::vector<std::vector<std::pair<std::size_t,
                                      const analysis::InstRecord *>>>
        byReader(kReaders);
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        for (std::size_t i = 0; i < forms.size(); ++i) {
            byWriter[i] =
                internSalted(in, forms[i], static_cast<std::uint32_t>(i));
            published.store(i + 1, std::memory_order_release);
        }
        writerDone.store(true);
    });
    for (int r = 0; r < kReaders; ++r)
        threads.emplace_back([&, r] {
            std::uint32_t salt = 0x9e3779b9u * (r + 1);
            for (std::uint64_t k = 0; !writerDone.load(); ++k) {
                const std::size_t n = published.load(std::memory_order_acquire);
                // Mostly forms already published (possibly moved by a
                // growth since), sometimes the writer's next ones.
                const std::size_t i =
                    k % 4 == 3 || n == 0
                        ? std::min(n + static_cast<std::size_t>(r),
                                   forms.size() - 1)
                        : (k * 7919) % n;
                byReader[r].emplace_back(
                    i, internSalted(in, forms[i], ++salt));
            }
        });
    for (auto &th : threads)
        th.join();

    std::uint64_t calls = forms.size();
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < forms.size(); ++i) {
        const analysis::InstRecord *ref =
            internSalted(in, forms[i], 0xffffffffu - i);
        ++calls;
        ASSERT_EQ(byWriter[i], ref) << "form " << i;
        ASSERT_EQ(std::memcmp(ref->key, formKey(forms[i]).data(), 16), 0)
            << "form " << i;
    }
    for (const auto &seen : byReader) {
        calls += seen.size();
        for (const auto &[i, rec] : seen)
            wrong += rec != byWriter[i];
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_GT(calls, 2 * forms.size());

    const analysis::InternStats after = in.stats();
    EXPECT_EQ(after.records - before.records, forms.size());
    EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
              calls);
}

/**
 * Four threads intern blocks and fused pairs on one arch: the per-
 * thread hit counters and the shared miss counters add up to exactly
 * one count per call.
 */
TEST(InternIndex, HitsPlusMissesCountEveryCallAcrossThreads)
{
    analysis::InstInterner &in =
        analysis::InstInterner::forArch(uarch::UArch::HSW);
    const Bytes cmp{0x39, 0xD8}; // cmp eax, ebx
    const Bytes jne{0x75, 0x10}; // jne rel8
    const analysis::InternStats before = in.stats();

    constexpr int kThreads = 4;
    constexpr int kFused = 500;
    std::vector<std::uint64_t> calls(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                for (const auto &b : randomSuite())
                    for (std::size_t pos = 0; pos < b.bytesU.size();
                         ++calls[t])
                        pos += in.internAt(b.bytesU.data(), b.bytesU.size(),
                                           pos)
                                   ->dec.length;
            const analysis::InstRecord *first =
                in.internAt(cmp.data(), cmp.size(), 0);
            const analysis::InstRecord *second =
                in.internAt(jne.data(), jne.size(), 0);
            calls[t] += 2;
            for (int k = 0; k < kFused; ++k)
                in.internFused(first, second);
        });
    for (auto &th : threads)
        th.join();

    std::uint64_t total = 0;
    for (std::uint64_t c : calls)
        total += c;
    const analysis::InternStats after = in.stats();
    EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
              total);
    EXPECT_EQ((after.fusedHits + after.fusedMisses) -
                  (before.fusedHits + before.fusedMisses),
              static_cast<std::uint64_t>(kThreads * kFused));
}

/**
 * A window miss on a known form is a layout pass and an index probe:
 * every instance of every swept form (any immediate, any displacement
 * of its class), behind never-seen filler, returns the form's record
 * and allocates nothing on the calling thread.
 */
TEST(InternIndex, WindowMissOnAKnownFormAllocatesNothing)
{
    analysis::InstInterner &in =
        analysis::InstInterner::forArch(uarch::UArch::BDW);
    std::vector<Form> forms = sweepForms();
    forms.push_back({"vaddps xmm0, xmm1, xmm2", {{0xC5, 0xF0, 0x58, 0xC2}}});
    forms.push_back({"nopw [rax+rax+0]",
                     {{0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00}}});
    std::vector<const analysis::InstRecord *> recs;
    for (const Form &f : forms)
        recs.push_back(internSalted(in, f.instances[0], 1));

    std::uint32_t salt = 0x5eed0000u;
    for (std::size_t i = 0; i < forms.size(); ++i)
        for (const Bytes &inst : forms[i].instances) {
            const Bytes buf = salted(inst, ++salt);
            const analysis::InternStats before = in.stats();
            const std::size_t news0 = tlsNews;
            const analysis::InstRecord *rec =
                in.internAt(buf.data(), buf.size(), 0);
            const std::size_t news = tlsNews - news0;
            const analysis::InternStats after = in.stats();
            EXPECT_EQ(rec, recs[i]) << forms[i].name;
            EXPECT_EQ(news, 0u) << forms[i].name;
            EXPECT_EQ(after.hits - before.hits, 1u) << forms[i].name;
            EXPECT_EQ(after.misses, before.misses) << forms[i].name;
        }
}

/**
 * A never-seen block whose forms are all interned: bb::analyze
 * allocates the block's instruction vector and nothing per instruction
 * (a growth step of that vector at most). The blocks are the random
 * suite's with their instructions in reverse order, so most decode
 * windows are new.
 */
TEST(InternIndex, AnalyzeOfANeverSeenBlockOfKnownFormsAllocatesOnlyItsVector)
{
    const uarch::UArch arch = uarch::UArch::CLX;
    const analysis::InstInterner &in = analysis::InstInterner::forArch(arch);
    std::vector<Bytes> reversed;
    for (const auto &b : randomSuite()) {
        bb::analyze(b.bytesU, arch);
        const auto insts = isa::decodeBlock(b.bytesU);
        Bytes r;
        for (std::size_t end = b.bytesU.size(), i = insts.size(); i-- > 0;) {
            r.insert(r.end(), b.bytesU.begin() + (end - insts[i].length),
                     b.bytesU.begin() + end);
            end -= insts[i].length;
        }
        reversed.push_back(std::move(r));
    }

    std::size_t counted = 0;
    for (Bytes &r : reversed) {
        const analysis::InternStats before = in.stats();
        const std::size_t news0 = tlsNews;
        {
            const bb::BasicBlock blk = bb::analyze(std::move(r), arch);
        }
        const std::size_t news = tlsNews - news0;
        const analysis::InternStats after = in.stats();
        // A new fused pair is interned (and allocated) once.
        if (after.misses != before.misses ||
            after.fusedMisses != before.fusedMisses)
            continue;
        ++counted;
        EXPECT_LE(news, 2u);
    }
    EXPECT_GT(counted, randomSuite().size() / 2);
}

} // namespace
} // namespace facile
