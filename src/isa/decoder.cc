#include "isa/decoder.h"

#include <cstring>
#include <initializer_list>
#include <utility>

namespace facile::isa {

namespace {

/** Cursor over the input bytes for one instruction. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t size, std::size_t pos)
        : data_(data), size_(size), start_(pos), pos_(pos)
    {}

    std::uint8_t
    peek() const
    {
        if (pos_ >= size_)
            throw DecodeError("unexpected end of buffer");
        return data_[pos_];
    }

    std::uint8_t
    next()
    {
        std::uint8_t b = peek();
        ++pos_;
        if (pos_ - start_ > 15)
            throw DecodeError("instruction longer than 15 bytes");
        return b;
    }

    std::int64_t
    imm(int width, bool signExtend = true)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(next()) << (8 * i);
        if (signExtend && width < 8) {
            std::uint64_t signBit = 1ULL << (8 * width - 1);
            if (v & signBit)
                v |= ~((signBit << 1) - 1);
        }
        return static_cast<std::int64_t>(v);
    }

    std::size_t offset() const { return pos_ - start_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t start_;
    std::size_t pos_;
};

/** Prefix state gathered before the opcode. */
struct Prefixes
{
    bool has66 = false;
    int mandatory = 0; ///< 0, 0xF2, or 0xF3
    bool rexPresent = false;
    bool rexW = false, rexR = false, rexX = false, rexB = false;
    // VEX state.
    bool vex = false;
    int vexMap = 0;
    int vexPp = 0;
    bool vexW = false, vexL = false;
    int vexVvvv = 0xF;
};

/** Decoded ModRM byte plus the resolved r/m operand. */
struct ModRm
{
    int reg = 0; ///< reg field with REX.R applied
    int mod = 0;
    bool rmIsMem = false;
    int rmReg = 0; ///< rm register index with REX.B applied (if !rmIsMem)
    int dispWidth = 0; ///< displacement bytes read (0, 1, or 4)
    MemOp mem;
};

ModRm
parseModRm(Cursor &cur, const Prefixes &pfx)
{
    ModRm result;
    std::uint8_t modrm = cur.next();
    result.mod = modrm >> 6;
    int rexR = pfx.rexR ? 8 : 0;
    int rexB = pfx.rexB ? 8 : 0;
    int rexX = pfx.rexX ? 8 : 0;
    result.reg = ((modrm >> 3) & 7) | rexR;
    int rmLow = modrm & 7;

    if (result.mod == 3) {
        result.rmIsMem = false;
        result.rmReg = rmLow | rexB;
        return result;
    }

    result.rmIsMem = true;
    MemOp &m = result.mem;
    if (rmLow == 4) {
        std::uint8_t sib = cur.next();
        int scaleBits = sib >> 6;
        int indexLow = (sib >> 3) & 7;
        int baseLow = sib & 7;
        m.scale = static_cast<std::uint8_t>(1 << scaleBits);
        if ((indexLow | rexX) != 4) {
            m.index = gpr(8, indexLow | rexX);
        } else {
            m.index = Reg{};
            m.scale = 1;
        }
        if (result.mod == 0 && baseLow == 5)
            throw DecodeError("base-less addressing not supported");
        m.base = gpr(8, baseLow | rexB);
    } else {
        if (result.mod == 0 && rmLow == 5)
            throw DecodeError("rip-relative addressing not supported");
        m.base = gpr(8, rmLow | rexB);
        m.index = Reg{};
        m.scale = 1;
    }
    result.dispWidth = result.mod == 1 ? 1 : result.mod == 2 ? 4 : 0;
    m.disp = result.dispWidth
                 ? static_cast<std::int32_t>(cur.imm(result.dispWidth))
                 : 0;
    return result;
}

/** GPR operand width from prefixes, for default-32-bit instructions. */
int
gprWidth(const Prefixes &pfx)
{
    if (pfx.rexW)
        return 8;
    if (pfx.has66)
        return 2;
    return 4;
}

Reg
rmRegOf(const ModRm &mod, int width)
{
    return gpr(width, mod.rmReg);
}

Operand
rmOperand(const ModRm &mod, int width)
{
    if (mod.rmIsMem) {
        MemOp m = mod.mem;
        m.width = static_cast<std::uint8_t>(width);
        return Operand::makeMem(m);
    }
    return Operand::makeReg(rmRegOf(mod, width));
}

Operand
rmVecOperand(const ModRm &mod, bool ymm, int memWidth = -1)
{
    if (mod.rmIsMem) {
        MemOp m = mod.mem;
        m.width = static_cast<std::uint8_t>(
            memWidth > 0 ? memWidth : (ymm ? 32 : 16));
        return Operand::makeMem(m);
    }
    return Operand::makeReg(ymm ? facile::isa::ymm(mod.rmReg)
                                : xmm(mod.rmReg));
}

const Mnemonic aluByBase[8] = {Mnemonic::ADD, Mnemonic::OR,  Mnemonic::ADC,
                               Mnemonic::SBB, Mnemonic::AND, Mnemonic::SUB,
                               Mnemonic::XOR, Mnemonic::CMP};

/** Decoder for one instruction; returns the DecodedInst. */
class InstDecoder
{
  public:
    /** With @p layoutOnly, run() builds no operand list. */
    InstDecoder(const std::uint8_t *data, std::size_t size, std::size_t pos,
                bool layoutOnly)
        : cur_(data, size, pos), layoutOnly_(layoutOnly)
    {}

    DecodedInst run();

  private:
    Cursor cur_;
    const bool layoutOnly_;
    Prefixes pfx_;
    DecodedInst out_;

    void parsePrefixes();
    void decodeLegacy();
    void decodeTwoByte();
    void decodeThreeByte38();
    void decodeVex();

    [[noreturn]] void
    bad(const std::string &msg)
    {
        throw DecodeError(msg);
    }

    /**
     * Record the instruction. The operands are built on the stack and
     * copied into one exactly sized vector, unless this is a layout
     * pass, which keeps none of them.
     */
    void
    set(Mnemonic m, std::initializer_list<Operand> ops, Cond cc = Cond::None)
    {
        out_.inst.mnem = m;
        out_.inst.cc = cc;
        if (!layoutOnly_)
            out_.inst.ops.assign(ops);
    }

    /** Parse the ModRM (+SIB, +displacement) and note its layout. */
    ModRm
    modRm()
    {
        ModRm mod = parseModRm(cur_, pfx_);
        out_.dispWidth = static_cast<std::uint8_t>(mod.dispWidth);
        return mod;
    }

    /** Record an immediate operand with proper width bookkeeping. */
    Operand
    immOp(int width)
    {
        std::int64_t v = cur_.imm(width);
        if (width == 2)
            sawImm16_ = true;
        out_.immWidth = static_cast<std::uint8_t>(width);
        return Operand::makeImm(v, width);
    }

    bool sawImm16_ = false;
};

void
InstDecoder::parsePrefixes()
{
    for (;;) {
        std::uint8_t b = cur_.peek();
        if (b == 0x66) {
            pfx_.has66 = true;
            cur_.next();
        } else if (b == 0xF2 || b == 0xF3) {
            pfx_.mandatory = b;
            cur_.next();
        } else if (b == 0x2E || b == 0x3E) { // segment prefixes (nop padding)
            cur_.next();
        } else {
            break;
        }
    }
    std::uint8_t b = cur_.peek();
    if ((b & 0xF0) == 0x40) {
        pfx_.rexPresent = true;
        pfx_.rexW = b & 8;
        pfx_.rexR = b & 4;
        pfx_.rexX = b & 2;
        pfx_.rexB = b & 1;
        cur_.next();
        b = cur_.peek();
    }
    if ((b == 0xC4 || b == 0xC5) && !pfx_.rexPresent && !pfx_.has66 &&
        !pfx_.mandatory) {
        pfx_.vex = true;
        cur_.next();
        if (b == 0xC5) {
            std::uint8_t v = cur_.next();
            pfx_.rexR = !(v & 0x80);
            pfx_.vexMap = 1;
            pfx_.vexVvvv = (~(v >> 3)) & 0xF;
            pfx_.vexL = v & 4;
            pfx_.vexPp = v & 3;
        } else {
            std::uint8_t v1 = cur_.next();
            std::uint8_t v2 = cur_.next();
            pfx_.rexR = !(v1 & 0x80);
            pfx_.rexX = !(v1 & 0x40);
            pfx_.rexB = !(v1 & 0x20);
            pfx_.vexMap = v1 & 0x1F;
            pfx_.vexW = v2 & 0x80;
            pfx_.vexVvvv = (~(v2 >> 3)) & 0xF;
            pfx_.vexL = v2 & 4;
            pfx_.vexPp = v2 & 3;
        }
    }
    out_.opcodeOffset = static_cast<std::uint8_t>(cur_.offset());
}

void
InstDecoder::decodeVex()
{
    std::uint8_t opc = cur_.next();
    bool L = pfx_.vexL;
    auto vecReg = [&](int idx) { return L ? ymm(idx) : xmm(idx); };
    // For three-operand forms, vvvv always names a register (xmm15/ymm15
    // encodes as vvvv = 1111); "unused" only applies to two-operand forms.
    Reg vvvv = vecReg(pfx_.vexVvvv);

    if (pfx_.vexMap == 1) {
        ModRm mod = modRm();
        Operand rm = rmVecOperand(mod, L);
        Operand reg = Operand::makeReg(vecReg(mod.reg));
        auto threeOp = [&](Mnemonic m) {
            set(m, {reg, Operand::makeReg(vvvv), rm});
        };
        switch (opc) {
          case 0x10: set(Mnemonic::VMOVUPS, {reg, rm}); return;
          case 0x11: set(Mnemonic::VMOVUPS, {rm, reg}); return;
          case 0x28: set(Mnemonic::VMOVAPS, {reg, rm}); return;
          case 0x29: set(Mnemonic::VMOVAPS, {rm, reg}); return;
          case 0x51:
            if (pfx_.vexPp == 1) {
                set(Mnemonic::VSQRTPD, {reg, rm});
                return;
            }
            bad("unsupported vex 0F 51 form");
          case 0x54: threeOp(Mnemonic::VANDPS); return;
          case 0x57: threeOp(Mnemonic::VXORPS); return;
          case 0x58:
            threeOp(pfx_.vexPp == 0   ? Mnemonic::VADDPS
                    : pfx_.vexPp == 1 ? Mnemonic::VADDPD
                                      : Mnemonic::VADDSD);
            return;
          case 0x59:
            threeOp(pfx_.vexPp == 0   ? Mnemonic::VMULPS
                    : pfx_.vexPp == 1 ? Mnemonic::VMULPD
                                      : Mnemonic::VMULSD);
            return;
          case 0x5C: threeOp(Mnemonic::VSUBPS); return;
          case 0x5E:
            threeOp(pfx_.vexPp == 0 ? Mnemonic::VDIVPS : Mnemonic::VDIVSD);
            return;
          case 0xEF: threeOp(Mnemonic::VPXOR); return;
          case 0xFE: threeOp(Mnemonic::VPADDD); return;
          default:
            bad("unsupported vex map1 opcode");
        }
    } else if (pfx_.vexMap == 2) {
        ModRm mod = modRm();
        Operand rm = rmVecOperand(mod, L);
        Operand reg = Operand::makeReg(vecReg(mod.reg));
        auto threeOp = [&](Mnemonic m) {
            set(m, {reg, Operand::makeReg(vvvv), rm});
        };
        switch (opc) {
          case 0x40: threeOp(Mnemonic::VPMULLD); return;
          case 0xB8:
            threeOp(pfx_.vexW ? Mnemonic::VFMADD231PD
                              : Mnemonic::VFMADD231PS);
            return;
          case 0xB9:
            if (pfx_.vexW) {
                threeOp(Mnemonic::VFMADD231SD);
                return;
            }
            bad("unsupported vfmadd form");
          default:
            bad("unsupported vex map2 opcode");
        }
    }
    bad("unsupported vex map");
}

void
InstDecoder::decodeThreeByte38()
{
    std::uint8_t opc = cur_.next();
    ModRm mod = modRm();
    switch (opc) {
      case 0x40: // pmulld (66)
        if (!pfx_.has66)
            bad("pmulld requires 66 prefix");
        set(Mnemonic::PMULLD,
            {Operand::makeReg(xmm(mod.reg)), rmVecOperand(mod, false)});
        return;
      default:
        bad("unsupported 0F 38 opcode");
    }
}

void
InstDecoder::decodeTwoByte()
{
    std::uint8_t opc = cur_.next();

    if (opc == 0x38) {
        decodeThreeByte38();
        return;
    }

    // jcc rel32
    if (opc >= 0x80 && opc <= 0x8F) {
        Cond cc = static_cast<Cond>(opc - 0x80);
        set(Mnemonic::JCC, {immOp(4)}, cc);
        return;
    }
    // setcc
    if (opc >= 0x90 && opc <= 0x9F) {
        Cond cc = static_cast<Cond>(opc - 0x90);
        ModRm mod = modRm();
        set(Mnemonic::SETCC, {rmOperand(mod, 1)}, cc);
        return;
    }
    // cmovcc
    if (opc >= 0x40 && opc <= 0x4F) {
        Cond cc = static_cast<Cond>(opc - 0x40);
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::CMOVCC,
            {Operand::makeReg(gpr(w, mod.reg)), rmOperand(mod, w)}, cc);
        return;
    }
    // bswap
    if (opc >= 0xC8 && opc <= 0xCF) {
        int idx = (opc - 0xC8) | (pfx_.rexB ? 8 : 0);
        set(Mnemonic::BSWAP, {Operand::makeReg(gpr(gprWidth(pfx_), idx))});
        return;
    }

    auto sseByPp = [&](Mnemonic ps, Mnemonic pd, Mnemonic ss, Mnemonic sd,
                       int scalarW) {
        ModRm mod = modRm();
        Mnemonic m;
        int memW = 16;
        if (pfx_.mandatory == 0xF3) {
            m = ss;
            memW = 4;
        } else if (pfx_.mandatory == 0xF2) {
            m = sd;
            memW = scalarW;
        } else if (pfx_.has66) {
            m = pd;
        } else {
            m = ps;
        }
        if (m == Mnemonic::kNumMnemonics)
            bad("unsupported sse form");
        set(m, {Operand::makeReg(xmm(mod.reg)),
                rmVecOperand(mod, false, memW)});
    };
    constexpr Mnemonic NONE = Mnemonic::kNumMnemonics;

    switch (opc) {
      case 0x10:
      case 0x11: {
        ModRm mod = modRm();
        Mnemonic m;
        int memW = 16;
        if (pfx_.mandatory == 0xF3) {
            m = Mnemonic::MOVSS;
            memW = 4;
        } else if (pfx_.mandatory == 0xF2) {
            m = Mnemonic::MOVSD;
            memW = 8;
        } else if (pfx_.has66) {
            bad("movupd not supported");
        } else {
            m = Mnemonic::MOVUPS;
        }
        Operand reg = Operand::makeReg(xmm(mod.reg));
        Operand rm = rmVecOperand(mod, false, memW);
        if (opc == 0x10)
            set(m, {reg, rm});
        else
            set(m, {rm, reg});
        return;
      }
      case 0x1F: { // multi-byte nop
        modRm();
        out_.inst.mnem = Mnemonic::NOP;
        out_.inst.ops.clear();
        return;
      }
      case 0x28:
      case 0x29: {
        ModRm mod = modRm();
        Mnemonic m = pfx_.has66 ? Mnemonic::MOVAPD : Mnemonic::MOVAPS;
        Operand reg = Operand::makeReg(xmm(mod.reg));
        Operand rm = rmVecOperand(mod, false);
        if (opc == 0x28)
            set(m, {reg, rm});
        else
            set(m, {rm, reg});
        return;
      }
      case 0x2A: {
        if (pfx_.mandatory != 0xF2)
            bad("only cvtsi2sd supported at 0F 2A");
        int srcW = pfx_.rexW ? 8 : 4;
        ModRm mod = modRm();
        set(Mnemonic::CVTSI2SD,
            {Operand::makeReg(xmm(mod.reg)), rmOperand(mod, srcW)});
        return;
      }
      case 0x2C: {
        if (pfx_.mandatory != 0xF2)
            bad("only cvttsd2si supported at 0F 2C");
        int dstW = pfx_.rexW ? 8 : 4;
        ModRm mod = modRm();
        set(Mnemonic::CVTTSD2SI, {Operand::makeReg(gpr(dstW, mod.reg)),
                                  rmVecOperand(mod, false, 8)});
        return;
      }
      case 0x51:
        sseByPp(Mnemonic::SQRTPS, Mnemonic::SQRTPD, NONE, Mnemonic::SQRTSD,
                8);
        return;
      case 0x54: sseByPp(Mnemonic::ANDPS, NONE, NONE, NONE, 8); return;
      case 0x56: sseByPp(Mnemonic::ORPS, NONE, NONE, NONE, 8); return;
      case 0x57: sseByPp(Mnemonic::XORPS, NONE, NONE, NONE, 8); return;
      case 0x58:
        sseByPp(Mnemonic::ADDPS, Mnemonic::ADDPD, Mnemonic::ADDSS,
                Mnemonic::ADDSD, 8);
        return;
      case 0x59:
        sseByPp(Mnemonic::MULPS, Mnemonic::MULPD, Mnemonic::MULSS,
                Mnemonic::MULSD, 8);
        return;
      case 0x5C:
        sseByPp(Mnemonic::SUBPS, Mnemonic::SUBPD, NONE, Mnemonic::SUBSD, 8);
        return;
      case 0x5D: sseByPp(Mnemonic::MINPS, NONE, NONE, NONE, 8); return;
      case 0x5E:
        sseByPp(Mnemonic::DIVPS, Mnemonic::DIVPD, Mnemonic::DIVSS,
                Mnemonic::DIVSD, 8);
        return;
      case 0x5F: sseByPp(Mnemonic::MAXPS, NONE, NONE, NONE, 8); return;
      case 0x62:
        sseByPp(NONE, Mnemonic::PUNPCKLDQ, NONE, NONE, 8);
        return;
      case 0x6E: {
        if (!pfx_.has66)
            bad("movd/movq requires 66");
        int w = pfx_.rexW ? 8 : 4;
        ModRm mod = modRm();
        set(pfx_.rexW ? Mnemonic::MOVQ : Mnemonic::MOVD,
            {Operand::makeReg(xmm(mod.reg)), rmOperand(mod, w)});
        return;
      }
      case 0x72: { // psll/psrl group, imm8
        if (!pfx_.has66)
            bad("pslld/psrld requires 66");
        ModRm mod = modRm();
        Operand imm = immOp(1);
        if (mod.reg == 6)
            set(Mnemonic::PSLLD, {rmVecOperand(mod, false), imm});
        else if (mod.reg == 2)
            set(Mnemonic::PSRLD, {rmVecOperand(mod, false), imm});
        else
            bad("unsupported 0F 72 group digit");
        return;
      }
      case 0x7E: {
        if (!pfx_.has66)
            bad("movd/movq requires 66");
        int w = pfx_.rexW ? 8 : 4;
        ModRm mod = modRm();
        set(pfx_.rexW ? Mnemonic::MOVQ : Mnemonic::MOVD,
            {rmOperand(mod, w), Operand::makeReg(xmm(mod.reg))});
        return;
      }
      case 0xAF: {
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::IMUL,
            {Operand::makeReg(gpr(w, mod.reg)), rmOperand(mod, w)});
        return;
      }
      case 0xB6:
      case 0xB7:
      case 0xBE:
      case 0xBF: {
        // With F3: 0F B8 is popcnt; BC/BD are tzcnt/lzcnt (handled below).
        int srcW = (opc & 1) ? 2 : 1;
        int dstW = gprWidth(pfx_);
        ModRm mod = modRm();
        set(opc < 0xBE ? Mnemonic::MOVZX : Mnemonic::MOVSX,
            {Operand::makeReg(gpr(dstW, mod.reg)), rmOperand(mod, srcW)});
        return;
      }
      case 0xB8: {
        if (pfx_.mandatory != 0xF3)
            bad("0F B8 without F3 unsupported");
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::POPCNT,
            {Operand::makeReg(gpr(w, mod.reg)), rmOperand(mod, w)});
        return;
      }
      case 0xBC:
      case 0xBD: {
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        Mnemonic m;
        if (pfx_.mandatory == 0xF3)
            m = (opc == 0xBC) ? Mnemonic::TZCNT : Mnemonic::LZCNT;
        else
            m = (opc == 0xBC) ? Mnemonic::BSF : Mnemonic::BSR;
        set(m, {Operand::makeReg(gpr(w, mod.reg)), rmOperand(mod, w)});
        return;
      }
      case 0xC6: {
        ModRm mod = modRm();
        Operand rm = rmVecOperand(mod, false);
        Operand imm = immOp(1);
        set(Mnemonic::SHUFPS, {Operand::makeReg(xmm(mod.reg)), rm, imm});
        return;
      }
      // 66-prefixed packed-integer ops.
      case 0xD4:
      case 0xDB:
      case 0xEB:
      case 0xEF:
      case 0xFA:
      case 0xFE: {
        if (!pfx_.has66)
            bad("packed-int op requires 66 prefix");
        ModRm mod = modRm();
        Mnemonic m;
        switch (opc) {
          case 0xD4: m = Mnemonic::PADDQ; break;
          case 0xDB: m = Mnemonic::PAND; break;
          case 0xEB: m = Mnemonic::POR; break;
          case 0xEF: m = Mnemonic::PXOR; break;
          case 0xFA: m = Mnemonic::PSUBD; break;
          default: m = Mnemonic::PADDD; break;
        }
        set(m, {Operand::makeReg(xmm(mod.reg)), rmVecOperand(mod, false)});
        return;
      }
      default:
        bad("unsupported two-byte opcode");
    }
}

void
InstDecoder::decodeLegacy()
{
    std::uint8_t opc = cur_.next();

    if (opc == 0x0F) {
        decodeTwoByte();
        return;
    }

    // ALU block 0x00..0x3B.
    if (opc < 0x40 && (opc & 7) < 4) {
        Mnemonic m = aluByBase[opc >> 3];
        int dir = opc & 3;
        int w = (dir & 1) ? gprWidth(pfx_) : 1;
        ModRm mod = modRm();
        Operand reg = Operand::makeReg(gpr(w, mod.reg));
        Operand rm = rmOperand(mod, w);
        if (dir < 2)
            set(m, {rm, reg});
        else
            set(m, {reg, rm});
        return;
    }

    if (opc >= 0x50 && opc <= 0x57) {
        int idx = (opc - 0x50) | (pfx_.rexB ? 8 : 0);
        set(Mnemonic::PUSH, {Operand::makeReg(gpr(8, idx))});
        return;
    }
    if (opc >= 0x58 && opc <= 0x5F) {
        int idx = (opc - 0x58) | (pfx_.rexB ? 8 : 0);
        set(Mnemonic::POP, {Operand::makeReg(gpr(8, idx))});
        return;
    }
    if (opc >= 0x70 && opc <= 0x7F) {
        Cond cc = static_cast<Cond>(opc - 0x70);
        set(Mnemonic::JCC, {immOp(1)}, cc);
        return;
    }
    if (opc >= 0xB0 && opc <= 0xB7) {
        int idx = (opc - 0xB0) | (pfx_.rexB ? 8 : 0);
        if (!pfx_.rexPresent && idx >= 4 && idx <= 7)
            bad("ah/ch/dh/bh not supported");
        set(Mnemonic::MOV, {Operand::makeReg(gpr(1, idx)), immOp(1)});
        return;
    }
    if (opc >= 0xB8 && opc <= 0xBF) {
        int idx = (opc - 0xB8) | (pfx_.rexB ? 8 : 0);
        int w = gprWidth(pfx_);
        int immW = (w == 2) ? 2 : (w == 8 ? 8 : 4);
        set(Mnemonic::MOV, {Operand::makeReg(gpr(w, idx)), immOp(immW)});
        return;
    }

    switch (opc) {
      case 0x68:
        set(Mnemonic::PUSH, {immOp(4)});
        return;
      case 0x6A:
        set(Mnemonic::PUSH, {immOp(1)});
        return;
      case 0x69:
      case 0x6B: {
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        Operand rm = rmOperand(mod, w);
        Operand imm = (opc == 0x6B) ? immOp(1) : immOp(w == 2 ? 2 : 4);
        set(Mnemonic::IMUL, {Operand::makeReg(gpr(w, mod.reg)), rm, imm});
        return;
      }
      case 0x80:
      case 0x81:
      case 0x83: {
        int w = (opc == 0x80) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        Mnemonic m = aluByBase[mod.reg & 7];
        Operand rm = rmOperand(mod, w);
        Operand imm;
        if (opc == 0x80 || opc == 0x83)
            imm = immOp(1);
        else
            imm = immOp(w == 2 ? 2 : 4);
        set(m, {rm, imm});
        return;
      }
      case 0x84:
      case 0x85: {
        int w = (opc == 0x84) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::TEST,
            {rmOperand(mod, w), Operand::makeReg(gpr(w, mod.reg))});
        return;
      }
      case 0x86:
      case 0x87: {
        int w = (opc == 0x86) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::XCHG,
            {rmOperand(mod, w), Operand::makeReg(gpr(w, mod.reg))});
        return;
      }
      case 0x88:
      case 0x89: {
        int w = (opc == 0x88) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::MOV,
            {rmOperand(mod, w), Operand::makeReg(gpr(w, mod.reg))});
        return;
      }
      case 0x8A:
      case 0x8B: {
        int w = (opc == 0x8A) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        set(Mnemonic::MOV,
            {Operand::makeReg(gpr(w, mod.reg)), rmOperand(mod, w)});
        return;
      }
      case 0x8D: {
        int w = gprWidth(pfx_);
        ModRm mod = modRm();
        if (!mod.rmIsMem)
            bad("lea requires a memory operand");
        Operand rm = rmOperand(mod, w);
        set(Mnemonic::LEA, {Operand::makeReg(gpr(w, mod.reg)), rm});
        return;
      }
      case 0x8F: {
        ModRm mod = modRm();
        set(Mnemonic::POP, {rmOperand(mod, 8)});
        return;
      }
      case 0x90:
        set(Mnemonic::NOP, {});
        return;
      case 0xC0:
      case 0xC1:
      case 0xD0:
      case 0xD1:
      case 0xD2:
      case 0xD3: {
        int w = (opc & 1) ? gprWidth(pfx_) : 1;
        ModRm mod = modRm();
        Mnemonic m;
        switch (mod.reg & 7) {
          case 0: m = Mnemonic::ROL; break;
          case 1: m = Mnemonic::ROR; break;
          case 4: m = Mnemonic::SHL; break;
          case 5: m = Mnemonic::SHR; break;
          case 7: m = Mnemonic::SAR; break;
          default: bad("unsupported shift group digit");
        }
        Operand amt;
        if (opc == 0xC0 || opc == 0xC1)
            amt = immOp(1);
        else if (opc == 0xD0 || opc == 0xD1)
            amt = Operand::makeImm(1, 1);
        else
            amt = Operand::makeReg(CL);
        set(m, {rmOperand(mod, w), amt});
        return;
      }
      case 0xC3:
        set(Mnemonic::RET, {});
        return;
      case 0xC6:
      case 0xC7: {
        int w = (opc == 0xC6) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        Operand rm = rmOperand(mod, w);
        Operand imm = immOp(w == 1 ? 1 : (w == 2 ? 2 : 4));
        set(Mnemonic::MOV, {rm, imm});
        return;
      }
      case 0xE8:
        set(Mnemonic::CALL, {immOp(4)});
        return;
      case 0xE9:
        set(Mnemonic::JMP, {immOp(4)});
        return;
      case 0xEB:
        set(Mnemonic::JMP, {immOp(1)});
        return;
      case 0xF6:
      case 0xF7: {
        int w = (opc == 0xF6) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        Operand rm = rmOperand(mod, w);
        switch (mod.reg & 7) {
          case 0:
            set(Mnemonic::TEST, {rm, immOp(w == 1 ? 1 : (w == 2 ? 2 : 4))});
            return;
          case 2: set(Mnemonic::NOT, {rm}); return;
          case 3: set(Mnemonic::NEG, {rm}); return;
          case 4: set(Mnemonic::MUL, {rm}); return;
          case 5: set(Mnemonic::IMUL, {rm}); return;
          case 6: set(Mnemonic::DIV, {rm}); return;
          case 7: set(Mnemonic::IDIV, {rm}); return;
          default: bad("unsupported F6/F7 group digit");
        }
      }
      case 0xFE:
      case 0xFF: {
        int w = (opc == 0xFE) ? 1 : gprWidth(pfx_);
        ModRm mod = modRm();
        Operand rm = rmOperand(mod, w);
        switch (mod.reg & 7) {
          case 0: set(Mnemonic::INC, {rm}); return;
          case 1: set(Mnemonic::DEC, {rm}); return;
          case 6:
            if (opc == 0xFF) {
                rm.mem.width = 8;
                set(Mnemonic::PUSH, {rm});
                return;
            }
            bad("unsupported FE group digit");
          default:
            bad("unsupported FE/FF group digit");
        }
      }
      default:
        bad("unsupported opcode");
    }
}

DecodedInst
InstDecoder::run()
{
    parsePrefixes();
    if (pfx_.vex)
        decodeVex();
    else
        decodeLegacy();
    out_.length = static_cast<std::uint8_t>(cur_.offset());
    // A NOP decodes back to its own canonical length.
    if (out_.inst.mnem == Mnemonic::NOP)
        out_.inst.nopLen = out_.length;
    // Length-changing prefix: 66 operand-size prefix + 16-bit immediate.
    out_.lcp = pfx_.has66 && sawImm16_;
    return std::move(out_);
}

} // namespace

DecodedInst
decodeOne(const std::uint8_t *data, std::size_t size, std::size_t pos)
{
    return InstDecoder(data, size, pos, false).run();
}

DecodedInst
decodeLayout(const std::uint8_t *data, std::size_t size, std::size_t pos)
{
    return InstDecoder(data, size, pos, true).run();
}

void
canonicalForm(const std::uint8_t *bytes, const DecodedInst &d,
              std::uint8_t *out)
{
    std::memcpy(out, bytes, d.length);
    std::uint8_t *imm = out + d.length - d.immWidth;
    std::memset(imm, 0, d.immWidth);
    std::uint8_t *disp = imm - d.dispWidth;
    bool nonzero = false;
    for (int i = 0; i < d.dispWidth; ++i)
        nonzero |= disp[i] != 0;
    std::memset(disp, 0, d.dispWidth);
    if (nonzero)
        disp[0] = 1; // little-endian 1 in either width
}

std::vector<DecodedInst>
decodeBlock(const std::vector<std::uint8_t> &bytes)
{
    std::vector<DecodedInst> out;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        DecodedInst d = decodeOne(bytes.data(), bytes.size(), pos);
        pos += d.length;
        out.push_back(std::move(d));
    }
    return out;
}

} // namespace facile::isa
