#ifndef CULINARYLAB_CULINARYLAB_H_
#define CULINARYLAB_CULINARYLAB_H_

/// Umbrella header: pulls in the whole CulinaryLab public API.
///
/// Fine-grained includes ("analysis/pairing.h", ...) are preferred in
/// library code; this header exists for applications, examples and
/// exploratory use.

#include "analysis/composition.h"
#include "analysis/contribution.h"
#include "analysis/fingerprint.h"
#include "analysis/molecules.h"
#include "analysis/ntuple.h"
#include "analysis/null_models.h"
#include "analysis/options.h"
#include "analysis/pairing.h"
#include "analysis/perturb.h"
#include "analysis/report.h"
#include "analysis/similarity.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dataframe/aggregate.h"
#include "dataframe/csv.h"
#include "dataframe/table.h"
#include "datagen/phrase_gen.h"
#include "datagen/world.h"
#include "evolution/copy_mutate.h"
#include "flavor/bitset.h"
#include "flavor/registry.h"
#include "flavor/registry_io.h"
#include "network/flavor_network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "recipe/database.h"
#include "recipe/parser.h"
#include "text/edit_distance.h"
#include "text/inflect.h"
#include "text/ngram.h"
#include "text/normalize.h"

#endif  // CULINARYLAB_CULINARYLAB_H_
