// Umbrella header: the full webppm public API.
//
// webppm reproduces "Popularity-Based PPM: An Effective Web Prefetching
// Technique for High Accuracy and Low Storage" (Chen & Zhang, ICPP 2002).
// Typical usage:
//
//   auto cfg   = webppm::workload::nasa_like(/*days=*/6);
//   auto trace = webppm::workload::generate_page_trace(cfg);
//   auto spec  = webppm::core::ModelSpec::pb_model();
//   auto res   = webppm::core::run_day_experiment(trace, spec, /*train=*/5);
//   std::cout << res.with_prefetch.hit_ratio() << '\n';
#pragma once

#include "cache/document_cache.hpp"   // IWYU pragma: export
#include "cache/gdsf_cache.hpp"       // IWYU pragma: export
#include "cache/lru_cache.hpp"        // IWYU pragma: export
#include "core/experiment.hpp"        // IWYU pragma: export
#include "core/report.hpp"            // IWYU pragma: export
#include "core/sweep.hpp"             // IWYU pragma: export
#include "frozen/frozen.hpp"          // IWYU pragma: export
#include "net/latency.hpp"            // IWYU pragma: export
#include "popularity/popularity.hpp"  // IWYU pragma: export
#include "ppm/lrs_ppm.hpp"            // IWYU pragma: export
#include "ppm/pb_base.hpp"            // IWYU pragma: export
#include "ppm/predictor.hpp"          // IWYU pragma: export
#include "ppm/standard_ppm.hpp"       // IWYU pragma: export
#include "ppm/top_n.hpp"              // IWYU pragma: export
#include "session/online.hpp"         // IWYU pragma: export
#include "session/session.hpp"        // IWYU pragma: export
#include "sim/simulator.hpp"          // IWYU pragma: export
#include "trace/clf.hpp"              // IWYU pragma: export
#include "trace/embed.hpp"            // IWYU pragma: export
#include "trace/record.hpp"           // IWYU pragma: export
#include "workload/generator.hpp"     // IWYU pragma: export
