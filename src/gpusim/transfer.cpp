#include "gpusim/transfer.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace afmm {

bool TransferFaultModel::attempt_fails(std::uint64_t key, int attempt) const {
  if (fail_prob <= 0.0) return false;
  if (fail_prob >= 1.0) return true;
  const std::uint64_t h =
      splitmix64(seed ^ splitmix64(key) ^
                 (static_cast<std::uint64_t>(attempt) * 0xd6e8feb86659fd93ull));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < fail_prob;
}

double transfer_seconds(const TransferLinkConfig& link, std::uint64_t bytes) {
  if (bytes == 0) return 0.0;
  return link.latency_us * 1e-6 +
         static_cast<double>(bytes) / (link.bandwidth_gbs * 1e9);
}

double transfer_seconds_with_retries(const TransferLinkConfig& link,
                                     std::uint64_t bytes,
                                     const TransferFaultModel& faults,
                                     std::uint64_t key, int* retries_out) {
  const double once = transfer_seconds(link, bytes);
  if (once == 0.0 || !faults.active()) return once;

  double total = 0.0;
  double backoff = link.backoff_base_us * 1e-6;
  for (int attempt = 0; attempt < link.max_retries; ++attempt) {
    if (!faults.attempt_fails(key, attempt)) return total + once;
    // Failed attempt: the transfer time was spent, then we back off.
    total += once + backoff;
    backoff *= link.backoff_multiplier;
    if (retries_out) ++*retries_out;
  }
  // Transient faults only: the final attempt goes through.
  return total + once;
}

StepTimeline plan_step(const TransferLinkConfig& link,
                       const std::vector<GpuTransferShape>& gpus) {
  return plan_step(link, gpus, TransferFaultModel{});
}

StepTimeline plan_step(const TransferLinkConfig& link,
                       const std::vector<GpuTransferShape>& gpus,
                       const TransferFaultModel& faults) {
  StepTimeline tl;
  tl.launch_seconds = link.host_launch_us * 1e-6 *
                      static_cast<double>(std::max<std::size_t>(gpus.size(), 1));
  std::uint64_t key = 0;
  double download_stream_max = 0.0;
  for (const auto& g : gpus) {
    int up_retries = 0;
    int down_retries = 0;
    const double up =
        transfer_seconds_with_retries(link, g.upload_bytes, faults, key++,
                                      &up_retries);
    const double down =
        transfer_seconds_with_retries(link, g.download_bytes, faults, key++,
                                      &down_retries);
    // Upload then kernel on this GPU's stream; GPUs run concurrently.
    tl.gpu_done_seconds = std::max(tl.gpu_done_seconds, up + g.kernel_seconds);
    // Downloads happen in the blocking gather, issued by one host thread:
    // the per-transfer setup latency and any retry + backoff delay serialize
    // across GPUs, while the bulk bytes stream concurrently on the per-GPU
    // links (each has its own link in the paper's 4-GPU node) --
    //   download = sum_i(latency_i + retry_i) + max_i(bytes_i / bandwidth).
    const double down_once = transfer_seconds(link, g.download_bytes);
    const double down_latency =
        g.download_bytes > 0 ? link.latency_us * 1e-6 : 0.0;
    tl.download_seconds += down_latency + (down - down_once);
    download_stream_max = std::max(download_stream_max, down_once - down_latency);
    tl.retries += up_retries + down_retries;
    tl.retry_seconds += (up - transfer_seconds(link, g.upload_bytes)) +
                        (down - down_once);
    tl.upload_each.push_back(up);
    tl.download_each.push_back(down);
  }
  tl.download_seconds += download_stream_max;
  return tl;
}

GpuTransferShape gravity_transfer_shape(std::uint64_t bodies_uploaded,
                                        std::uint64_t targets_downloaded,
                                        std::uint64_t work_list_entries,
                                        double kernel_seconds) {
  GpuTransferShape s;
  s.upload_bytes = bodies_uploaded * 4 * sizeof(double) +
                   work_list_entries * 2 * sizeof(std::uint32_t);
  s.download_bytes = targets_downloaded * 4 * sizeof(double);
  s.kernel_seconds = kernel_seconds;
  return s;
}

}  // namespace afmm
