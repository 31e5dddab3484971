#include "yolo/config.hpp"

#include "common/error.hpp"

namespace pimdnn::yolo {

namespace {

LayerDef conv(int filters, int size, int stride, bool leaky = true) {
  LayerDef d;
  d.type = LayerType::Convolutional;
  d.filters = filters;
  d.size = size;
  d.stride = stride;
  d.pad = size / 2;
  d.leaky = leaky;
  return d;
}

LayerDef shortcut(int from) {
  LayerDef d;
  d.type = LayerType::Shortcut;
  d.from = from;
  d.leaky = false;
  return d;
}

LayerDef route(std::vector<int> layers) {
  LayerDef d;
  d.type = LayerType::Route;
  d.layers = std::move(layers);
  return d;
}

LayerDef upsample() {
  LayerDef d;
  d.type = LayerType::Upsample;
  return d;
}

LayerDef maxpool(int size, int stride) {
  LayerDef d;
  d.type = LayerType::Maxpool;
  d.size = size;
  d.stride = stride;
  return d;
}

LayerDef yolo(std::vector<int> mask) {
  LayerDef d;
  d.type = LayerType::Yolo;
  d.mask = std::move(mask);
  return d;
}

/// Appends one Darknet residual: 1x1 bottleneck, 3x3 expand, shortcut -3.
void residual(std::vector<LayerDef>& v, int filters) {
  v.push_back(conv(filters / 2, 1, 1));
  v.push_back(conv(filters, 3, 1));
  v.push_back(shortcut(-3));
}

/// Throws UsageError "layer <layer>: <what>" unless `ok`; a passing check
/// builds no string.
void check_layer(bool ok, std::size_t layer, const char* what) {
  if (!ok) {
    throw UsageError("layer " + std::to_string(layer) + ": " + what);
  }
}

} // namespace

std::vector<LayerDef> yolov3_config() {
  std::vector<LayerDef> v;
  // ---- Darknet-53 backbone ----
  v.push_back(conv(32, 3, 1)); // 0
  v.push_back(conv(64, 3, 2)); // 1: /2
  residual(v, 64);             // 2-4
  v.push_back(conv(128, 3, 2)); // 5: /4
  for (int i = 0; i < 2; ++i) residual(v, 128); // 6-11
  v.push_back(conv(256, 3, 2)); // 12: /8
  for (int i = 0; i < 8; ++i) residual(v, 256); // 13-36 (route point 36)
  v.push_back(conv(512, 3, 2)); // 37: /16
  for (int i = 0; i < 8; ++i) residual(v, 512); // 38-61 (route point 61)
  v.push_back(conv(1024, 3, 2)); // 62: /32
  for (int i = 0; i < 4; ++i) residual(v, 1024); // 63-74

  // ---- Detection head, scale 1 (13x13 for 416 input) ----
  v.push_back(conv(512, 1, 1));  // 75
  v.push_back(conv(1024, 3, 1)); // 76
  v.push_back(conv(512, 1, 1));  // 77
  v.push_back(conv(1024, 3, 1)); // 78
  v.push_back(conv(512, 1, 1));  // 79
  v.push_back(conv(1024, 3, 1)); // 80
  v.push_back(conv(255, 1, 1, /*leaky=*/false)); // 81
  v.push_back(yolo({6, 7, 8}));  // 82

  // ---- Scale 2 (26x26) ----
  v.push_back(route({-4}));      // 83 -> layer 79
  v.push_back(conv(256, 1, 1));  // 84
  v.push_back(upsample());       // 85
  v.push_back(route({-1, 61}));  // 86
  v.push_back(conv(256, 1, 1));  // 87
  v.push_back(conv(512, 3, 1));  // 88
  v.push_back(conv(256, 1, 1));  // 89
  v.push_back(conv(512, 3, 1));  // 90
  v.push_back(conv(256, 1, 1));  // 91
  v.push_back(conv(512, 3, 1));  // 92
  v.push_back(conv(255, 1, 1, /*leaky=*/false)); // 93
  v.push_back(yolo({3, 4, 5}));  // 94

  // ---- Scale 3 (52x52) ----
  v.push_back(route({-4}));      // 95 -> layer 91
  v.push_back(conv(128, 1, 1));  // 96
  v.push_back(upsample());       // 97
  v.push_back(route({-1, 36}));  // 98
  v.push_back(conv(128, 1, 1));  // 99
  v.push_back(conv(256, 3, 1));  // 100
  v.push_back(conv(128, 1, 1));  // 101
  v.push_back(conv(256, 3, 1));  // 102
  v.push_back(conv(128, 1, 1));  // 103
  v.push_back(conv(256, 3, 1));  // 104
  v.push_back(conv(255, 1, 1, /*leaky=*/false)); // 105
  v.push_back(yolo({0, 1, 2}));  // 106
  return v;
}

std::vector<LayerDef> yolov3_tiny_config() {
  std::vector<LayerDef> v;
  v.push_back(conv(16, 3, 1));   // 0
  v.push_back(maxpool(2, 2));    // 1: /2
  v.push_back(conv(32, 3, 1));   // 2
  v.push_back(maxpool(2, 2));    // 3: /4
  v.push_back(conv(64, 3, 1));   // 4
  v.push_back(maxpool(2, 2));    // 5: /8
  v.push_back(conv(128, 3, 1));  // 6
  v.push_back(maxpool(2, 2));    // 7: /16
  v.push_back(conv(256, 3, 1));  // 8 (route point)
  v.push_back(maxpool(2, 2));    // 9: /32
  v.push_back(conv(512, 3, 1));  // 10
  v.push_back(maxpool(2, 1));    // 11: stride-1 pool keeps the size
  v.push_back(conv(1024, 3, 1)); // 12
  v.push_back(conv(256, 1, 1));  // 13 (route point)
  v.push_back(conv(512, 3, 1));  // 14
  v.push_back(conv(255, 1, 1, /*leaky=*/false)); // 15
  v.push_back(yolo({3, 4, 5}));  // 16
  v.push_back(route({13}));      // 17
  v.push_back(conv(128, 1, 1));  // 18
  v.push_back(upsample());       // 19
  v.push_back(route({-1, 8}));   // 20
  v.push_back(conv(256, 3, 1));  // 21
  v.push_back(conv(255, 1, 1, /*leaky=*/false)); // 22
  v.push_back(yolo({0, 1, 2}));  // 23
  return v;
}

std::vector<LayerDef> yolov3_lite_config(int width_mult, int max_repeats) {
  require(width_mult >= 1, "width_mult must be >= 1");
  require(max_repeats >= 1, "max_repeats must be >= 1");
  const int b = 8 * width_mult;
  const int head_filters = 3 * (4 + 5); // 4 classes + box + objectness

  std::vector<LayerDef> v;
  v.push_back(conv(b, 3, 1));
  const int stage_repeats[5] = {1, 2, 8, 8, 4};
  int route_mid = -1; // end of the 3rd downsample stage, for the head route
  for (int s = 0; s < 5; ++s) {
    const int filters = b << (s + 1);
    v.push_back(conv(filters, 3, 2));
    const int reps = std::min(max_repeats, stage_repeats[s]);
    for (int r = 0; r < reps; ++r) residual(v, filters);
    if (s == 2) route_mid = static_cast<int>(v.size()) - 1;
  }

  // Head scale 1.
  v.push_back(conv(b * 8, 1, 1));
  v.push_back(conv(b * 16, 3, 1));
  v.push_back(conv(head_filters, 1, 1, /*leaky=*/false));
  v.push_back(yolo({3, 4, 5}));
  // Head scale 2 via route + upsample to the mid-stage feature map.
  v.push_back(route({-4}));
  v.push_back(conv(b * 4, 1, 1));
  v.push_back(upsample());
  v.push_back(upsample()); // head sits at /32; mid stage at /8 -> two 2x ups
  v.push_back(route({-1, route_mid}));
  v.push_back(conv(b * 8, 3, 1));
  v.push_back(conv(head_filters, 1, 1, /*leaky=*/false));
  v.push_back(yolo({0, 1, 2}));
  return v;
}

std::size_t resolve_ref(std::size_t layer, int ref) {
  const long abs =
      ref < 0 ? static_cast<long>(layer) + ref : static_cast<long>(ref);
  if (abs < 0 || abs >= static_cast<long>(layer)) {
    throw UsageError("layer " + std::to_string(layer) + ": reference " +
                     std::to_string(ref) + " is unresolvable");
  }
  return static_cast<std::size_t>(abs);
}

std::vector<LayerShape> layer_shapes(const std::vector<LayerDef>& defs,
                                     int in_c, int in_h, int in_w) {
  std::vector<LayerShape> shapes;
  shapes.reserve(defs.size());
  Shape cur{in_c, in_h, in_w};
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const LayerDef& d = defs[i];
    check_layer(cur.c >= 1 && cur.h >= 1 && cur.w >= 1, i,
                "input shape is not positive");
    LayerShape ls;
    ls.in = cur;
    switch (d.type) {
      case LayerType::Convolutional:
        check_layer(d.filters >= 1 && d.size >= 1 && d.stride >= 1 &&
                        d.pad >= 0,
                    i, "conv needs filters, size and stride >= 1, pad >= 0");
        ls.conv = {cur.c, cur.h, cur.w, d.filters, d.size, d.stride, d.pad};
        check_layer(ls.conv.out_h() > 0 && ls.conv.out_w() > 0, i,
                    "degenerate output");
        cur = {d.filters, ls.conv.out_h(), ls.conv.out_w()};
        break;
      case LayerType::Shortcut:
        check_layer(shapes[resolve_ref(i, d.from)].out == cur, i,
                    "shortcut shape mismatch");
        break;
      case LayerType::Route: {
        check_layer(!d.layers.empty(), i, "route with no layers");
        Shape out;
        for (int idx : d.layers) {
          const Shape& other = shapes[resolve_ref(i, idx)].out;
          check_layer(out.c == 0 || (other.h == out.h && other.w == out.w),
                      i, "route spatial mismatch");
          out = {out.c + other.c, other.h, other.w};
        }
        cur = out;
        break;
      }
      case LayerType::Upsample:
        cur.h *= 2;
        cur.w *= 2;
        break;
      case LayerType::Maxpool:
        check_layer(d.size >= 1 && d.stride >= 1, i,
                    "maxpool needs size and stride >= 1");
        // Darknet maxpool geometry: ceil division (stride-1 pools with
        // edge padding keep the map size).
        cur.h = (cur.h + d.stride - 1) / d.stride;
        cur.w = (cur.w + d.stride - 1) / d.stride;
        break;
      case LayerType::Yolo:
        break;
    }
    ls.out = cur;
    shapes.push_back(ls);
  }
  return shapes;
}

ConfigSummary summarize(const std::vector<LayerDef>& defs, int in_c, int in_h,
                        int in_w) {
  const std::vector<LayerShape> shapes = layer_shapes(defs, in_c, in_h, in_w);
  ConfigSummary s;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    switch (defs[i].type) {
      case LayerType::Convolutional:
        s.total_macs += shapes[i].conv.macs();
        ++s.conv_layers;
        break;
      case LayerType::Shortcut:
        ++s.shortcut_layers;
        break;
      case LayerType::Route:
        ++s.route_layers;
        break;
      case LayerType::Upsample:
        ++s.upsample_layers;
        break;
      case LayerType::Maxpool:
        ++s.maxpool_layers;
        break;
      case LayerType::Yolo:
        ++s.yolo_layers;
        break;
    }
  }
  return s;
}

} // namespace pimdnn::yolo
