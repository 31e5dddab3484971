// YOLOv3 network configuration (thesis §4.2.1: "YOLOv3 features the
// Darknet-53 network architecture ... fifty-three convolutional layers"
// in the backbone plus detection heads).
//
// `yolov3_config()` reproduces the published Darknet cfg: 75 convolutional
// layers, 23 shortcut (residual) connections, 4 routes, 2 upsamples and 3
// YOLO detection layers (106 layers after the input). `yolov3_lite_config`
// builds a faithfully shaped but scaled-down variant for functional
// simulation runs where the full 416x416 network would take too long; the
// full-size network is still used analytically (see dpu_gemm estimator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/im2col.hpp"

namespace pimdnn::yolo {

/// Kinds of layers the runner understands.
enum class LayerType : std::uint8_t {
  Convolutional,
  Shortcut,
  Route,
  Upsample,
  Maxpool,
  Yolo,
};

/// One layer of the network, Darknet-cfg style.
struct LayerDef {
  LayerType type = LayerType::Convolutional;
  // Convolutional fields.
  int filters = 0;   ///< output channels
  int size = 1;      ///< kernel side
  int stride = 1;    ///< stride
  int pad = 0;       ///< zero padding
  bool leaky = true; ///< leaky (true) vs linear (false) activation
  // Shortcut: add output of layer (index relative, e.g. -3).
  int from = 0;
  // Route: concatenate these layer indices (relative if negative).
  std::vector<int> layers;
  // Yolo: anchor-box mask indices (informational).
  std::vector<int> mask;
};

/// Channels, height and width of one CHW activation tensor.
struct Shape {
  int c = 0;
  int h = 0;
  int w = 0;

  /// Element count.
  std::size_t size() const {
    return static_cast<std::size_t>(c) * h * w;
  }
  bool operator==(const Shape&) const = default;
};

/// One layer's place in the shape recurrence.
struct LayerShape {
  Shape in;  ///< the previous layer's output (the network input for layer 0)
  Shape out; ///< this layer's output
  /// A convolution's lowered GEMM (M x N x K, §4.2.3); zero elsewhere.
  nn::ConvGeom conv{};
};

/// Static facts about a built configuration.
struct ConfigSummary {
  int conv_layers = 0;
  int shortcut_layers = 0;
  int route_layers = 0;
  int upsample_layers = 0;
  int maxpool_layers = 0;
  int yolo_layers = 0;
  std::int64_t total_macs = 0; ///< MACs for a given input size
};

/// The full YOLOv3 layer list (Darknet-53 backbone + 3 detection heads).
std::vector<LayerDef> yolov3_config();

/// The official YOLOv3-tiny layer list: 13 convolutions, 6 maxpools, two
/// detection heads (the lighter network the thesis' future work suggests
/// evaluating as an "alternative CNN").
std::vector<LayerDef> yolov3_tiny_config();

/// A scaled-down network with the same structural motifs (downsample
/// blocks, residuals, route/upsample head) sized by `width_mult` over a
/// base of 8 filters; residual repeat counts are capped at `max_repeats`.
std::vector<LayerDef> yolov3_lite_config(int width_mult = 1,
                                         int max_repeats = 1);

/// Index of the layer that route/shortcut reference `ref` of layer `layer`
/// names (negative references count back from `layer`). Throws UsageError,
/// naming the layer and the reference, unless it is an earlier layer.
std::size_t resolve_ref(std::size_t layer, int ref);

/// Every layer's input and output shape for an (in_c, in_h, in_w) input:
/// the one shape recurrence of a config, index-aligned with `defs`. Throws
/// UsageError naming the layer when the topology is malformed: a
/// non-positive input shape, a conv with filters, size or stride below 1
/// or pad below 0, a conv with an empty output, a maxpool with size or
/// stride below 1, an unresolvable route/shortcut reference, a shortcut
/// whose shapes differ, or a route that is empty or mixes spatial sizes.
std::vector<LayerShape> layer_shapes(const std::vector<LayerDef>& defs,
                                     int in_c, int in_h, int in_w);

/// Layer counts and total MACs over layer_shapes (which validates).
ConfigSummary summarize(const std::vector<LayerDef>& defs, int in_c, int in_h,
                        int in_w);

} // namespace pimdnn::yolo
