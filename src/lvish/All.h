//===- All.h - Full-surface umbrella header ---------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything-included umbrella: the core (src/core/LVish.h) plus the
/// Data.LVar.* structures (src/data) and the effect transformers
/// (src/trans). Examples and quick prototypes include this one header;
/// library and benchmark code should keep including the specific headers
/// it uses (src/core/LVish.h stays core-only by design).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_LVISH_ALL_H
#define LVISH_LVISH_ALL_H

// Core: Par, effects, lattices, runPar/RunOptions, IVar, handler pools.
#include "src/core/LVish.h"  // IWYU pragma: export
#include "src/core/ParFor.h" // IWYU pragma: export

// Data structures (Data.LVar.* in the paper).
#include "src/data/AndLV.h"           // IWYU pragma: export
#include "src/data/Counter.h"         // IWYU pragma: export
#include "src/data/DenseSet.h"        // IWYU pragma: export
#include "src/data/IMap.h"            // IWYU pragma: export
#include "src/data/ISet.h"            // IWYU pragma: export
#include "src/data/IStructure.h"      // IWYU pragma: export
#include "src/data/InsertOnlyTable.h" // IWYU pragma: export
#include "src/data/PureMap.h"         // IWYU pragma: export
#include "src/data/Stream.h"          // IWYU pragma: export

// Transformers and derived abstractions (Sections 5-6).
#include "src/trans/BulkRetry.h"    // IWYU pragma: export
#include "src/trans/Cancel.h"       // IWYU pragma: export
#include "src/trans/Deadlock.h"     // IWYU pragma: export
#include "src/trans/Memo.h"         // IWYU pragma: export
#include "src/trans/ParRng.h"       // IWYU pragma: export
#include "src/trans/ParST.h"        // IWYU pragma: export
#include "src/trans/Pedigree.h"     // IWYU pragma: export
#include "src/trans/StateLayer.h"   // IWYU pragma: export
#include "src/trans/Transformers.h" // IWYU pragma: export

#endif // LVISH_LVISH_ALL_H
