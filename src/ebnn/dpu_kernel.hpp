// The eBNN DPU program: binary Conv-Pool block plus either the in-DPU
// soft-float BN-BinAct (Figure 4.2a) or the host-built LUT (Figure 4.2b).
//
// Mapping scheme (thesis §4.1.3): many images per DPU, one tasklet per
// image. Each tasklet DMAs its image from MRAM to its WRAM slice, runs the
// whole Conv-Pool block out of WRAM (this is why eBNN performs so much
// better than YOLOv3 — §4.3.3), and DMAs the packed feature bits back to
// MRAM. At most 16 images fit per DPU because a single MRAM->WRAM image
// transfer is capped at 2048 bytes.
#pragma once

#include <cstdint>

#include "common/types.hpp"

#include "ebnn/lut.hpp"
#include "ebnn/model.hpp"
#include "sim/dpu.hpp"

namespace pimdnn::ebnn {

/// How the DPU evaluates the BN-BinAct stage.
enum class BnMode : std::uint8_t {
  SoftFloat, ///< float subroutines inside the DPU (default eBNN, Fig 4.2a)
  HostLut,   ///< host-precomputed lookup table (the thesis' rework, Fig 4.2b)
};

/// How the binary convolution gathers its input window.
enum class ConvKernel : std::uint8_t {
  /// Byte-per-bit window gather: 3 instructions per tap (the direct port).
  Scalar,
  /// Word-parallel gather: each binarized image row is packed into one
  /// 32-bit word, so a 3x3 window is three shift/mask extractions — the
  /// optimization §4.3.4/§6.1 call for ("the most optimal mapping and
  /// programming of a CNN"). Requires ksize == 3 and img_w <= 32.
  /// Bit-identical results to Scalar, roughly half the conv cycles.
  PackedRows,
};

/// Memory layout facts the host needs to feed/read the program.
struct EbnnLayout {
  /// Bytes per image slot in the "images" MRAM symbol (8-byte aligned).
  MemSize image_stride = 0;
  /// Bytes per image slot in the "results" MRAM symbol (packed feature
  /// words, 8-byte aligned).
  MemSize result_stride = 0;
  /// 32-bit words of packed feature bits per filter.
  std::uint32_t words_per_filter = 0;
  /// Maximum images a DPU can hold (16: the 2048-byte transfer limit).
  std::uint32_t max_images = 16;
};

/// Symbol names of the eBNN program (host-visible ABI).
namespace symbols {
inline constexpr const char* kImages = "images";       ///< MRAM, inputs
inline constexpr const char* kResults = "results";     ///< MRAM, outputs
inline constexpr const char* kMeta = "meta";           ///< WRAM, u64 n_images
inline constexpr const char* kConvWeights = "conv_w";  ///< WRAM, packed taps
inline constexpr const char* kBnLut = "bn_lut";        ///< WRAM, LUT bytes
inline constexpr const char* kBnParams = "bn_params";  ///< WRAM, W0..W4 floats
} // namespace symbols

/// Computes the layout for a config.
EbnnLayout ebnn_layout(const EbnnConfig& cfg);

/// Builds the DPU program. The kernel reads weights/LUT from WRAM symbols
/// the host broadcasts, so one program instance serves every DPU.
/// `mode` selects the BN-BinAct implementation and thereby the subroutine
/// profile the run produces (Figure 4.3); `kernel` selects the window
/// gather implementation.
sim::DpuProgram make_ebnn_program(const EbnnConfig& cfg, BnMode mode,
                                  ConvKernel kernel = ConvKernel::Scalar);

/// Exact analytic kernel wall of one DPU holding `n_images` images run
/// with `n_tasklets` tasklets: prices the kernel's per-tasklet charge
/// record (the one its fast twin applies) with sim::wall_cycles on `sys`
/// (the calibration tests assert equality with the simulated DpuRunStats
/// in both sim modes). This is the kernel-cost callback `map::Mapper`
/// searches with.
Cycles estimate_ebnn_wall_cycles(
    const EbnnConfig& cfg, BnMode mode, ConvKernel kernel,
    std::uint32_t n_images, std::uint32_t n_tasklets, sim::OptLevel opt,
    const sim::UpmemConfig& sys = sim::default_config());

} // namespace pimdnn::ebnn
