/**
 * @file
 * Architectural constants of the network interface: register numbers,
 * STATUS / CONTROL register layouts, the Figure-9 command-address
 * encoding used by the cache-mapped implementations, and the MsgIp
 * dispatch-table layout.
 */

#ifndef TCPNI_NI_NI_REGS_HH
#define TCPNI_NI_NI_REGS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/bitfield.hh"
#include "sim/types.hh"

namespace tcpni
{
namespace ni
{

/**
 * Interface register numbers (Figure 1).  The paper's Figure-9 example
 * decodes register number 6 as i1, fixing the order: the five output
 * registers first, then the five input registers, then the control and
 * dispatch registers.
 */
enum NiReg : unsigned
{
    regO0 = 0,
    regO1 = 1,
    regO2 = 2,
    regO3 = 3,
    regO4 = 4,
    regI0 = 5,
    regI1 = 6,
    regI2 = 7,
    regI3 = 8,
    regI4 = 9,
    regStatus = 10,
    regControl = 11,
    regMsgIp = 12,
    regNextMsgIp = 13,
    regIpBase = 14,

    numNiRegs = 15,
};

/**
 * STATUS register layout.  The STATUS register reports the current
 * state of the interface (Section 2.1): queue occupancies, whether the
 * input registers hold a valid message and its type, the queue
 * threshold bits, and any pending exceptional condition.
 */
namespace status
{
constexpr unsigned inputLenShift = 0;      //!< [7:0] input queue length
constexpr unsigned outputLenShift = 8;     //!< [15:8] output queue length
constexpr unsigned msgValidBit = 16;       //!< input regs hold a message
constexpr unsigned msgTypeShift = 17;      //!< [20:17] current msg type
constexpr unsigned iafullBit = 21;         //!< input queue over threshold
constexpr unsigned oafullBit = 22;         //!< output queue over threshold
constexpr unsigned excPendingBit = 23;     //!< exception pending
constexpr unsigned excCodeShift = 24;      //!< [27:24] exception code

/* The fields must tile without overlap; handler code extracts the
 * type with a single shift-and-mask relative to msgValidBit. */
static_assert(msgValidBit == outputLenShift + 8 &&
              msgTypeShift == msgValidBit + 1 &&
              iafullBit == msgTypeShift + 4 &&
              oafullBit == iafullBit + 1 &&
              excPendingBit == oafullBit + 1 &&
              excCodeShift == excPendingBit + 1,
              "STATUS fields must be adjacent and non-overlapping");
} // namespace status

/** Exception codes reported through STATUS [27:24]. */
enum class ExcCode : uint8_t
{
    none = 0,
    outputOverflow = 1,     //!< SEND with a full output queue
    inputPortError = 2,     //!< malformed input (e.g. bad SCROLL-IN)
    privilegedPending = 3,  //!< privileged message awaiting the OS
    pinMismatch = 4,        //!< message for an inactive process queued
};

/**
 * CONTROL register layout (Section 2.1): the full-output-queue policy,
 * PIN checking, the two queue thresholds, and the active process PIN.
 */
namespace control
{
constexpr unsigned stallOnFullBit = 0;     //!< 1: stall SEND, 0: raise exc
constexpr unsigned checkPinBit = 1;        //!< enable PIN matching
/**
 * Interrupt-driven reception (Section 2.1 leaves the choice of polled
 * vs interrupt-driven open; both are implemented).  While set, the
 * arrival of a message into empty input registers interrupts the
 * processor: the return address is placed in the interrupt link
 * register (r14 by convention) and control transfers to the MsgIp
 * handler.  The bit clears on interrupt entry; the handler re-enables
 * it (write CONTROL) before returning.
 */
constexpr unsigned intEnableBit = 2;
constexpr unsigned inThresholdShift = 8;   //!< [15:8]
constexpr unsigned outThresholdShift = 16; //!< [23:16]
constexpr unsigned pinShift = 24;          //!< [31:24] active process PIN
} // namespace control

/**
 * Figure 9: encoding of network interface commands and register number
 * into a memory address for the cache-mapped implementations.
 *
 *   [5:2]   interface register number
 *   [9:6]   type of message to be sent
 *   [11:10] 01 SEND / 10 SEND-reply / 11 SEND-forward / 00 none
 *   [12]    NEXT command
 *   [13]    SCROLL-IN command   (our variable-length extension)
 *   [14]    SCROLL-OUT command  (our variable-length extension)
 *
 * The interface claims the top of the address space: any access whose
 * upper bits match niAddrBase is directed to the interface.
 */
namespace cmdaddr
{
constexpr unsigned regShift = 2;
constexpr unsigned typeShift = 6;
constexpr unsigned modeShift = 10;
constexpr unsigned nextBit = 12;
constexpr unsigned scrollInBit = 13;
constexpr unsigned scrollOutBit = 14;

static_assert(typeShift == regShift + 4 &&
              modeShift == typeShift + 4 &&
              nextBit == modeShift + 2 &&
              scrollInBit == nextBit + 1 &&
              scrollOutBit == scrollInBit + 1,
              "Figure-9 command-address fields must tile the offset");

/** Base address of the cache-mapped interface window. */
constexpr Word niAddrBase = 0xffff0000u;

/** The SEND-mode, NEXT and SCROLL bits: an access with none of them
 *  set is a plain register read or write. */
constexpr Word commandBits = (3u << modeShift) | (1u << nextBit) |
                             (1u << scrollInBit) | (1u << scrollOutBit);

/** Compose a command address (offset part only). */
constexpr Word
offset(unsigned reg, unsigned mode = 0, unsigned type = 0,
       bool next = false, bool scroll_in = false, bool scroll_out = false)
{
    return static_cast<Word>((reg << regShift) | (type << typeShift) |
                             (mode << modeShift) |
                             (next ? 1u << nextBit : 0) |
                             (scroll_in ? 1u << scrollInBit : 0) |
                             (scroll_out ? 1u << scrollOutBit : 0));
}
} // namespace cmdaddr

/**
 * MsgIp dispatch-table layout (Section 2.2.3 / Figure 7).
 *
 * Each handler stub occupies a fixed 128-byte (32-instruction) slot,
 * large enough to hold the paper's biggest handler (PRead on an empty
 * element) entirely inline.  The slot index concatenates the queue-
 * threshold bits with the 4-bit message type -- giving the paper's
 * "four versions of each message handler" -- so the table spans 64
 * slots / 8 KB and IpBase must be 8 KB aligned:
 *
 *   MsgIp = IpBase[31:13] | iafull << 12 | oafull << 11 | type << 7
 *
 * Special indices: type 0000 with no valid message is the poll/idle
 * handler; type 0001 is reserved for the exception handler (messages of
 * type 1 are disallowed); a valid type-0 message below both thresholds
 * dispatches through the message's word 1 instead (case 2 of Figure 7).
 */
namespace dispatch
{
constexpr unsigned handlerShift = 7;    //!< log2(handler slot bytes)
constexpr unsigned typeShift = 7;       //!< type -> address bits [10:7]
constexpr unsigned oafullShift = 11;
constexpr unsigned iafullShift = 12;
constexpr Word tableMask = 0xffffe000u; //!< IpBase bits used

constexpr Word
handlerAddr(Word ip_base, unsigned type, bool iafull = false,
            bool oafull = false)
{
    return (ip_base & tableMask) | (static_cast<Word>(type) << typeShift) |
           (iafull ? 1u << iafullShift : 0) |
           (oafull ? 1u << oafullShift : 0);
}

/** The exception handler's reserved type. */
constexpr unsigned excType = 1;

/*
 * The MsgIp composition only works if the three inserted fields tile
 * the 13 bits below the IpBase window without overlapping each other
 * or the window.  Everything downstream (the 128-byte handler slots,
 * the four threshold variants, the 8 KB table size, the verifier's
 * slot enumeration) is derived from these relationships, so pin them
 * down at compile time.
 */
static_assert(typeShift == handlerShift,
              "type index must start at the handler-slot stride");
static_assert(oafullShift == typeShift + 4,
              "oafull must sit directly above the 4-bit type field");
static_assert(iafullShift == oafullShift + 1,
              "iafull must sit directly above oafull");
static_assert(tableMask == static_cast<Word>(~mask(iafullShift + 1)),
              "IpBase window must start directly above iafull");
static_assert((handlerAddr(0, 0xf, true, true) & tableMask) == 0,
              "type/iafull/oafull fields must not reach the IpBase "
              "window");
static_assert(handlerAddr(tableMask, 0xf, true, true) ==
                  (tableMask | (0xfu << typeShift) |
                   (1u << iafullShift) | (1u << oafullShift)),
              "the four MsgIp fields must be disjoint");
} // namespace dispatch

/**
 * Symbols describing this encoding, for use as assembler predefines.
 * Kernels reference e.g. "NI_I1 | NI_REPLY | NI_TYPE*7 | NI_NEXT".
 */
std::map<std::string, uint64_t> asmSymbols();

} // namespace ni
} // namespace tcpni

#endif // TCPNI_NI_NI_REGS_HH
