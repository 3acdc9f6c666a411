// Replayable serve workloads (`kpm.serve.workload/1`).
//
// A workload file captures everything a serve run consumes — the server
// configuration, the models to register (built deterministically from the
// lattice builders) and the request trace with simulated arrival times.
// Because the scheduler is a pure function of this file, replaying it at
// any worker count reproduces byte-identical responses and an identical
// deterministic report fingerprint; CI pins that property on a committed
// workload.
//
// Schema (JSON object):
//   {
//     "schema": "kpm.serve.workload/1",
//     "label": "smoke",
//     "config": {"workers": 1, "max_queue": 8, "max_batch": 4,
//                "policy": "degrade", "degrade_floor": 16,
//                "cache_bytes": 1048576},                  // all optional
//     "models": [
//       {"name": "m0", "lattice": "square", "edge": 12,
//        "disorder": 0.0, "seed": 1, "currents": [0]}      // currents optional
//     ],
//     "requests": [
//       {"kind": "dos",  "id": 1, "model": "m0", "arrival": 0.0,
//        "priority": 0, "deadline": 0.0, "engine": "cpu-parallel",
//        "moments": 64, "R": 2, "S": 1, "seed": 7,
//        "kernel": "jackson", "points": 128},
//       {"kind": "ldos",  ..., "site": 3},
//       {"kind": "sigma", ..., "axis": 0}
//     ]
//   }
// "engine" takes any spelling `core::engine_kind_from_string` accepts.
// Unknown request fields are ignored; missing optional fields take the
// library defaults documented in serve/request.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace kpm::serve {

/// One model to register: a lattice-builder recipe, not a matrix, so the
/// file stays small and the content fingerprint is reproducible.
struct ModelSpec {
  std::string name;
  std::string lattice = "cubic";  ///< chain|square|cubic
  std::size_t edge = 8;
  double disorder = 0.0;
  std::uint64_t seed = 0;
  std::vector<std::size_t> currents;  ///< axes to register current operators for
};

/// A parsed workload file.
struct ReplayWorkload {
  std::string label;
  ServeConfig config;
  bool config_sets_workers = false;  ///< file carried an explicit config.workers
  std::vector<ModelSpec> models;
  std::vector<Request> requests;
};

/// Parses a `kpm.serve.workload/1` document.  Throws kpm::Error on schema
/// mismatch, malformed JSON or out-of-range fields.
[[nodiscard]] ReplayWorkload parse_workload(const std::string& json_text);

/// Reads and parses a workload file from disk.
[[nodiscard]] ReplayWorkload load_workload(const std::string& path);

/// Builds the (unscaled) Hamiltonian of `spec` from its lattice recipe.
[[nodiscard]] linalg::CrsMatrix build_model_matrix(const ModelSpec& spec);

/// Builds the current operator of `spec` along `axis`.
[[nodiscard]] linalg::CrsMatrix build_model_current(const ModelSpec& spec, std::size_t axis);

/// Builds and registers every model of `workload` (Hamiltonian plus the
/// requested current operators) into `server`.
void register_models(Server& server, const ReplayWorkload& workload);

}  // namespace kpm::serve
