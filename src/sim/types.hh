/**
 * @file
 * Fundamental scalar types shared by every PRISM module.
 */

#ifndef PRISM_SIM_TYPES_HH
#define PRISM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace prism {

/** Simulated time, in processor clock cycles. */
using Tick = std::uint64_t;

/** A duration measured in processor clock cycles. */
using Cycles = std::uint64_t;

/** Sentinel for "no tick" / "never". */
constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** Identifier of a compute node (0 .. numNodes-1). */
using NodeId = std::uint32_t;

/** Globally unique processor identifier (0 .. numProcs-1). */
using ProcId = std::uint32_t;

/** Sentinel node id. */
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/** Sentinel processor id. */
constexpr ProcId kInvalidProc = std::numeric_limits<ProcId>::max();

/** Physical page frame number, private to one node. */
using FrameNum = std::uint64_t;

/** Sentinel frame number. */
constexpr FrameNum kInvalidFrame = std::numeric_limits<FrameNum>::max();

/**
 * First frame number of the imaginary (LA-NUMA) range.  Real frames
 * count up from 0 and imaginary frames from here, so both ranges are
 * dense and a frame number can index per-frame storage directly.
 */
constexpr FrameNum kImaginaryFrameBase = 1ULL << 24;

} // namespace prism

#endif // PRISM_SIM_TYPES_HH
