"""GPU device models for the execution simulator.

Parameters are drawn from public device documentation and the paper's
Table 1; timing constants (launch overhead, minimum kernel time) are the
commonly measured microbenchmark values for the respective runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuModel", "A100", "MI250X_GCD"]


@dataclass(frozen=True)
class GpuModel:
    """Timing-relevant properties of one logical GPU.

    Attributes
    ----------
    name:
        Marketing name.
    peak_bandwidth_gbs:
        HBM bandwidth per logical GPU, as listed in Table 1: 1550 GB/s for
        the A100-64GB, and 1650 GB/s for one MI250X GCD (half of the
        3300 GB/s per module).
    peak_fp64_tflops:
        Vector FP64 peak per logical GPU.
    launch_overhead_us:
        Host-side cost of one kernel launch (CUDA/HIP API call).
    submit_delay_us:
        Additional latency until the kernel is visible to the device
        scheduler.
    min_kernel_us:
        Floor on device-side kernel duration (scheduling granularity).
    requires_priority_for_concurrency:
        The paper: "This is necessary on NVIDIA GPUs to allow small
        coarse-solve kernels to progress even in the presence of already
        executing larger kernels.  This is not a concern on AMD GPUs."
    """

    name: str
    peak_bandwidth_gbs: float
    peak_fp64_tflops: float
    launch_overhead_us: float = 4.0
    submit_delay_us: float = 1.0
    min_kernel_us: float = 3.0
    requires_priority_for_concurrency: bool = True

    def kernel_duration_us(self, bytes_moved: float, flops: float = 0.0) -> float:
        """Roofline duration of one kernel in microseconds."""
        t_bw = bytes_moved / (self.peak_bandwidth_gbs * 1e9) * 1e6
        t_fl = flops / (self.peak_fp64_tflops * 1e12) * 1e6 if flops else 0.0
        return max(self.min_kernel_us, t_bw, t_fl)


# Leonardo's accelerator (Table 1): custom A100 SXM, 64 GB HBM2e.
A100 = GpuModel(
    name="NVIDIA A100",
    peak_bandwidth_gbs=1550.0,
    peak_fp64_tflops=9.7,
    launch_overhead_us=4.0,
    submit_delay_us=1.0,
    min_kernel_us=3.0,
    requires_priority_for_concurrency=True,
)

# LUMI's logical GPU (Table 1): one Graphics Compute Die of an MI250X.
MI250X_GCD = GpuModel(
    name="AMD MI250X (GCD)",
    peak_bandwidth_gbs=1650.0,  # 3300 GB/s per module, two GCDs
    peak_fp64_tflops=23.95,  # 47.9 per module
    launch_overhead_us=5.0,
    submit_delay_us=1.5,
    min_kernel_us=4.0,
    requires_priority_for_concurrency=False,
)
