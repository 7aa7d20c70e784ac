/**
 * @file
 * Layer drivers: each times one hot public call of one simulator
 * layer in isolation and returns its median cost in ns per operation.
 * Multiplied by the count the traced run observed for that layer, a
 * driver's ns/op estimates how much of the un-instrumentable dispatch
 * time the layer accounts for.
 */

#ifndef TT_PERFBENCH_DRIVERS_HH
#define TT_PERFBENCH_DRIVERS_HH

#include <cstdint>

namespace ttbench
{

/** EventQueue schedule + pop of a self-rescheduling event. */
double queueNs(std::uint64_t seed);

/** Task::start() resuming a coroutine that suspends every step. */
double resumeNs();

/** CacheModel::probeRead over a mix of resident and absent lines. */
double cacheProbeNs(std::uint64_t cacheBytes, std::uint64_t seed);

/** CacheModel::fill with random-replacement evictions. */
double cacheFillNs(std::uint64_t cacheBytes, std::uint64_t seed);

/** TlbModel::access over twice as many pages as entries. */
double tlbNs(std::uint64_t seed);

/** Network::send to a counting receiver, delivered on a private queue. */
double sendDeliverNs(std::uint64_t seed);

/**
 * StacheDirEntry sharer add/remove, including the pointer to
 * bit-vector overflow past the paper's six pointers.
 */
double dirOpNs(std::uint64_t seed);

/** ShadowTable get / getWritable on the checker's copy-word leaves. */
double shadowNs(std::uint64_t seed);

} // namespace ttbench

#endif // TT_PERFBENCH_DRIVERS_HH
