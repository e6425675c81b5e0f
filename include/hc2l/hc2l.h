#ifndef HC2L_PUBLIC_HC2L_H_
#define HC2L_PUBLIC_HC2L_H_

/// Umbrella header of the public HC2L API. Consumers (the CLI, the examples,
/// downstream applications) include this one header and program against:
///
///   - hc2l::Router / hc2l::ThreadedRouter  — build, open, save, query
///   - hc2l::QueryRequest / hc2l::Execute   — the zero-copy request/response
///                                            bulk-query model (hc2l/query.h)
///   - hc2l::QueryServer (hc2l/server.h)    — the hc2ld TCP serving front
///                                            end (not pulled in here; it is
///                                            opt-in for socket-free builds)
///   - hc2l::Status / hc2l::Result<T>       — the recoverable error model
///   - hc2l::Graph / hc2l::Digraph          — graph assembly (GraphBuilder,
///                                            DigraphBuilder)
///   - DIMACS .gr I/O and the synthetic road-network generator
///   - small utilities used throughout the examples (Rng, Timer)
///
/// The concrete index classes (src/core/hc2l.h, src/core/directed_hc2l.h
/// and their shared core src/core/label_index.h) are internal; see
/// docs/api.md.

#include "common/rng.h"
#include "common/timer.h"
#include "common/types.h"
#include "graph/digraph.h"
#include "graph/dimacs_io.h"
#include "graph/graph.h"
#include "graph/road_network_generator.h"
#include "hc2l/router.h"
#include "hc2l/status.h"

#endif  // HC2L_PUBLIC_HC2L_H_
