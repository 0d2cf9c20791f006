/**
 * @file
 * Host CPU probes that size the simulator's worker threads: how many
 * CPUs this process may use, and how many of them other threads are
 * already using. Neither value reaches simulated output.
 */

#pragma once

namespace rtp {

/**
 * CPUs this process may run on: the count of its sched_getaffinity
 * mask, so that taskset and cpusets are honoured, or
 * std::thread::hardware_concurrency() where the mask cannot be read;
 * at least 1.
 */
unsigned usableCpuCount();

/**
 * Threads runnable on the host besides the caller: procs_running − 1
 * from /proc/stat. The minimum of a few back-to-back reads is kept, so
 * that a momentary spike does not count as load; 0 when /proc/stat
 * cannot be read.
 */
unsigned runnableOtherThreads();

} // namespace rtp
