#ifndef KGREC_CORE_REGISTRY_H_
#define KGREC_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"

namespace kgrec {

class DotProductFactors;  // retrieval/factors.h

/// How a method uses the KG (survey Table 3 columns).
enum class UsageType { kNone, kEmbedding, kPath, kUnified };

/// One row of the survey's Table 3 (plus the non-KG baselines of
/// Section 2.2), with a factory when the method is implemented here.
struct MethodInfo {
  std::string name;
  std::string venue;
  int year = 0;
  UsageType usage = UsageType::kNone;
  /// Technique flags as in Table 3.
  bool uses_cnn = false;
  bool uses_rnn = false;
  bool uses_attention = false;
  bool uses_gnn = false;
  bool uses_gan = false;
  bool uses_rl = false;
  bool uses_autoencoder = false;
  bool uses_mf = false;
  /// False for surveyed methods catalogued but not implemented in kgrec.
  bool implemented = false;
};

/// All methods: the implemented zoo first (baselines + one per family
/// walkthrough of the survey), then the remaining Table 3 rows for
/// completeness (implemented = false).
std::vector<MethodInfo> AllMethods();

/// Creates an implemented recommender by name (e.g. "RippleNet",
/// "BPR-MF", "KGCN-LS"). Returns nullptr for unknown or unimplemented
/// names. Models are created with their default (library-scale)
/// hyper-parameters.
std::unique_ptr<Recommender> MakeRecommender(const std::string& name);

/// Names of all implemented methods, in Table 3 order.
std::vector<std::string> ImplementedMethodNames();

/// Reconstructs a recommender from a KGRC checkpoint: reads the file
/// once, builds the concrete type its header names (with the registry
/// default hyper-parameters) and restores it against `context`, which
/// must describe the dataset the checkpoint was trained on. Fails with a
/// descriptive Status — never a crash or a silently wrong model — when
/// the file is missing/corrupt, names an unknown model, or carries a
/// mismatched format version or hyper-parameter fingerprint.
Status LoadModel(const RecContext& context, const std::string& path,
                 std::unique_ptr<Recommender>* out);

/// In-memory copy of a fitted `model`: its packed state restored into a
/// fresh registry instance of the same name against `context` (the
/// dataset `model` was fitted or loaded under). No file is involved, and
/// the copy scores bitwise like LoadModel of the same model's checkpoint.
/// Fails like LoadModel: InvalidArgument for a name the registry cannot
/// construct, FailedPrecondition for a model trained under non-registry
/// hyper-parameters or one without checkpoint support. `*out` is
/// untouched on failure.
Status CloneModel(const Recommender& model, const RecContext& context,
                  std::unique_ptr<Recommender>* out);

const char* UsageTypeName(UsageType usage);

/// The model's embedding-export surface if it has one, else nullptr.
/// A factorizable model scores as a fixed kernel between a per-user
/// query vector and a per-item factor row (see retrieval/factors.h),
/// which is what lets an ItemIndex serve its exact top-K sublinearly.
const DotProductFactors* AsFactorizable(const Recommender& model);

/// True when AsFactorizable(model) != nullptr.
bool IsFactorizable(const Recommender& model);

/// Names of implemented methods whose default-constructed model exposes
/// DotProductFactors (no Fit needed — factorizability is a property of
/// the type). Subset of ImplementedMethodNames(), same order.
std::vector<std::string> FactorizableMethodNames();

/// True when the named method implements the online Update() path (a
/// property of the type — no Fit needed). Unknown names are false.
bool SupportsUpdate(const std::string& name);

/// Names of implemented methods supporting Update(), in
/// ImplementedMethodNames() order.
std::vector<std::string> UpdatableMethodNames();

}  // namespace kgrec

#endif  // KGREC_CORE_REGISTRY_H_
