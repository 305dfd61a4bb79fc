#include "core/registry.h"

#include "core/serialize.h"
#include "retrieval/factors.h"

#include "cf/fm.h"
#include "cf/knn.h"
#include "cf/mf.h"
#include "cf/popularity.h"
#include "embed/cfkg.h"
#include "embed/cke.h"
#include "embed/dkfm.h"
#include "embed/dkn.h"
#include "embed/ecfkg.h"
#include "embed/entity2rec.h"
#include "embed/ksr.h"
#include "embed/ktgan.h"
#include "embed/ktup.h"
#include "embed/mkr.h"
#include "embed/sed.h"
#include "embed/shine.h"
#include "path/ekar.h"
#include "path/fmg.h"
#include "path/hete_cf.h"
#include "path/hete_mf.h"
#include "path/herec.h"
#include "path/heterec.h"
#include "path/kprn.h"
#include "path/mcrec.h"
#include "path/pgpr.h"
#include "path/proppr.h"
#include "path/rkge.h"
#include "path/rulerec.h"
#include "unified/akupm.h"
#include "unified/kgat.h"
#include "unified/kgcn.h"
#include "unified/kni.h"
#include "unified/ripplenet.h"
#include "unified/ripplenet_agg.h"

namespace kgrec {

const char* UsageTypeName(UsageType usage) {
  switch (usage) {
    case UsageType::kNone:
      return "-";
    case UsageType::kEmbedding:
      return "Emb.";
    case UsageType::kPath:
      return "Path";
    case UsageType::kUnified:
      return "Uni.";
  }
  return "?";
}

std::vector<MethodInfo> AllMethods() {
  std::vector<MethodInfo> methods;
  auto add = [&methods](MethodInfo info) { methods.push_back(info); };

  // --- Non-KG baselines (survey Section 2.2) -------------------------
  add({.name = "Popularity", .venue = "-", .year = 0, .implemented = true});
  add({.name = "UserKNN", .venue = "-", .year = 0, .implemented = true});
  add({.name = "ItemKNN", .venue = "-", .year = 0, .implemented = true});
  add({.name = "MF", .venue = "-", .year = 0, .uses_mf = true,
       .implemented = true});
  add({.name = "BPR-MF", .venue = "UAI", .year = 2009, .uses_mf = true,
       .implemented = true});
  add({.name = "FM", .venue = "ICDM", .year = 2010, .uses_mf = true,
       .implemented = true});

  // --- Embedding-based methods (Table 3, top block) -------------------
  add({.name = "CKE", .venue = "KDD", .year = 2016,
       .usage = UsageType::kEmbedding, .uses_autoencoder = true,
       .implemented = true});
  add({.name = "entity2rec", .venue = "RecSys", .year = 2017,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "ECFKG", .venue = "Algorithms", .year = 2018,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "SHINE", .venue = "WSDM", .year = 2018,
       .usage = UsageType::kEmbedding, .uses_autoencoder = true,
       .implemented = true});
  add({.name = "DKN", .venue = "WWW", .year = 2018,
       .usage = UsageType::kEmbedding, .uses_cnn = true,
       .uses_attention = true, .implemented = true});
  add({.name = "KSR", .venue = "SIGIR", .year = 2018,
       .usage = UsageType::kEmbedding, .uses_rnn = true,
       .uses_attention = true, .implemented = true});
  add({.name = "CFKG", .venue = "SIGIR", .year = 2018,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "KTGAN", .venue = "ICDM", .year = 2018,
       .usage = UsageType::kEmbedding, .uses_gan = true,
       .implemented = true});
  add({.name = "KTUP", .venue = "WWW", .year = 2019,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "MKR", .venue = "WWW", .year = 2019,
       .usage = UsageType::kEmbedding, .uses_attention = true,
       .implemented = true});
  add({.name = "DKFM", .venue = "WWW", .year = 2019,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "SED", .venue = "WWW", .year = 2019,
       .usage = UsageType::kEmbedding, .implemented = true});
  add({.name = "RCF", .venue = "SIGIR", .year = 2019,
       .usage = UsageType::kEmbedding, .uses_attention = true});
  add({.name = "BEM", .venue = "CIKM", .year = 2019,
       .usage = UsageType::kEmbedding});

  // --- Path-based methods (Table 3, middle block) ----------------------
  add({.name = "Hete-MF", .venue = "IJCAI", .year = 2013,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "HeteRec", .venue = "RecSys", .year = 2013,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "HeteRec-p", .venue = "WSDM", .year = 2014,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "Hete-CF", .venue = "ICDM", .year = 2014,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "SemRec", .venue = "CIKM", .year = 2015,
       .usage = UsageType::kPath, .uses_mf = true});
  add({.name = "ProPPR", .venue = "RecSys", .year = 2016,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "FMG", .venue = "KDD", .year = 2017,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "MCRec", .venue = "KDD", .year = 2018,
       .usage = UsageType::kPath, .uses_cnn = true, .uses_attention = true,
       .uses_mf = true, .implemented = true});
  add({.name = "RKGE", .venue = "RecSys", .year = 2018,
       .usage = UsageType::kPath, .uses_rnn = true, .uses_attention = true,
       .implemented = true});
  add({.name = "HERec", .venue = "TKDE", .year = 2019,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "KPRN", .venue = "AAAI", .year = 2019,
       .usage = UsageType::kPath, .uses_rnn = true, .uses_attention = true,
       .implemented = true});
  add({.name = "RuleRec", .venue = "WWW", .year = 2019,
       .usage = UsageType::kPath, .uses_mf = true, .implemented = true});
  add({.name = "PGPR", .venue = "SIGIR", .year = 2019,
       .usage = UsageType::kPath, .uses_rl = true, .implemented = true});
  add({.name = "EIUM", .venue = "MM", .year = 2019,
       .usage = UsageType::kPath, .uses_cnn = true, .uses_attention = true});
  add({.name = "Ekar", .venue = "arXiv", .year = 2019,
       .usage = UsageType::kPath, .uses_rl = true, .implemented = true});

  // --- Unified methods (Table 3, bottom block) -------------------------
  add({.name = "RippleNet", .venue = "CIKM", .year = 2018,
       .usage = UsageType::kUnified, .uses_attention = true,
       .implemented = true});
  add({.name = "RippleNet-agg", .venue = "TOIS", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true, .implemented = true});
  add({.name = "KGCN", .venue = "WWW", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true, .implemented = true});
  add({.name = "KGAT", .venue = "KDD", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true, .implemented = true});
  add({.name = "KGCN-LS", .venue = "KDD", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true, .implemented = true});
  add({.name = "AKUPM", .venue = "KDD", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .implemented = true});
  add({.name = "KNI", .venue = "KDD", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true, .implemented = true});
  add({.name = "IntentGC", .venue = "KDD", .year = 2019,
       .usage = UsageType::kUnified, .uses_gnn = true});
  add({.name = "RCoLM", .venue = "IEEE Access", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true});
  add({.name = "AKGE", .venue = "arXiv", .year = 2019,
       .usage = UsageType::kUnified, .uses_attention = true,
       .uses_gnn = true});
  return methods;
}

std::unique_ptr<Recommender> MakeRecommender(const std::string& name) {
  if (name == "Popularity") return std::make_unique<PopularityRecommender>();
  if (name == "UserKNN") return std::make_unique<UserKnnRecommender>();
  if (name == "ItemKNN") return std::make_unique<ItemKnnRecommender>();
  if (name == "MF") return std::make_unique<MfRecommender>();
  if (name == "BPR-MF") return std::make_unique<BprMfRecommender>();
  if (name == "FM") return std::make_unique<FmRecommender>();
  if (name == "CKE") return std::make_unique<CkeRecommender>();
  if (name == "entity2rec") return std::make_unique<Entity2RecRecommender>();
  if (name == "SHINE") return std::make_unique<ShineRecommender>();
  if (name == "KSR") return std::make_unique<KsrRecommender>();
  if (name == "KTGAN") return std::make_unique<KtganRecommender>();
  if (name == "DKN") return std::make_unique<DknRecommender>();
  if (name == "CFKG") return std::make_unique<CfkgRecommender>();
  if (name == "ECFKG") return std::make_unique<EcfkgRecommender>();
  if (name == "DKFM") return std::make_unique<DkfmRecommender>();
  if (name == "SED") return std::make_unique<SedRecommender>();
  if (name == "KTUP") return std::make_unique<KtupRecommender>();
  if (name == "MKR") return std::make_unique<MkrRecommender>();
  if (name == "Hete-MF") return std::make_unique<HeteMfRecommender>();
  if (name == "Hete-CF") return std::make_unique<HeteCfRecommender>();
  if (name == "HeteRec") return std::make_unique<HeteRecRecommender>();
  if (name == "HERec") return std::make_unique<HERecRecommender>();
  if (name == "HeteRec-p") {
    HeteRecConfig config;
    config.num_user_clusters = 4;
    return std::make_unique<HeteRecRecommender>(config);
  }
  if (name == "FMG") return std::make_unique<FmgRecommender>();
  if (name == "RKGE") return std::make_unique<RkgeRecommender>();
  if (name == "MCRec") return std::make_unique<McRecRecommender>();
  if (name == "KPRN") return std::make_unique<KprnRecommender>();
  if (name == "RuleRec") return std::make_unique<RuleRecRecommender>();
  if (name == "PGPR") return std::make_unique<PgprRecommender>();
  if (name == "ProPPR") return std::make_unique<ProPprRecommender>();
  if (name == "Ekar") return std::make_unique<EkarRecommender>();
  if (name == "RippleNet") return std::make_unique<RippleNetRecommender>();
  if (name == "RippleNet-agg") {
    return std::make_unique<RippleNetAggRecommender>();
  }
  if (name == "KNI") return std::make_unique<KniRecommender>();
  if (name == "AKUPM") return std::make_unique<AkupmRecommender>();
  if (name == "KGCN") return std::make_unique<KgcnRecommender>();
  if (name == "KGCN-LS") {
    KgcnConfig config;
    config.ls_weight = 0.5f;
    return std::make_unique<KgcnRecommender>(config);
  }
  if (name == "KGAT") return std::make_unique<KgatRecommender>();
  return nullptr;
}

namespace {

/// Restores `tensors` into a fresh registry instance of the model that
/// `header` names; shared by LoadModel and CloneModel.
Status RestoreRegistered(const RecContext& context,
                         const CheckpointHeader& header,
                         std::vector<NamedTensor> tensors,
                         const std::string& source,
                         std::unique_ptr<Recommender>* out) {
  std::unique_ptr<Recommender> model = MakeRecommender(header.model_name);
  if (model == nullptr) {
    return Status::InvalidArgument(
        "checkpoint names unknown model '" + header.model_name + "': " +
        source);
  }
  KGREC_RETURN_IF_ERROR(
      model->RestoreState(context, header, std::move(tensors), source));
  *out = std::move(model);
  return Status::OK();
}

}  // namespace

Status LoadModel(const RecContext& context, const std::string& path,
                 std::unique_ptr<Recommender>* out) {
  CheckpointHeader header;
  std::vector<NamedTensor> tensors;
  KGREC_RETURN_IF_ERROR(LoadCheckpoint(path, &header, &tensors));
  return RestoreRegistered(context, header, std::move(tensors), path, out);
}

Status CloneModel(const Recommender& model, const RecContext& context,
                  std::unique_ptr<Recommender>* out) {
  CheckpointHeader header;
  std::vector<NamedTensor> tensors;
  KGREC_RETURN_IF_ERROR(model.PackState(&header, &tensors));
  return RestoreRegistered(context, header, std::move(tensors),
                           "in-memory clone of '" + model.name() + "'", out);
}

std::vector<std::string> ImplementedMethodNames() {
  std::vector<std::string> out;
  for (const MethodInfo& info : AllMethods()) {
    if (info.implemented) out.push_back(info.name);
  }
  return out;
}

const DotProductFactors* AsFactorizable(const Recommender& model) {
  return dynamic_cast<const DotProductFactors*>(&model);
}

bool IsFactorizable(const Recommender& model) {
  return AsFactorizable(model) != nullptr;
}

std::vector<std::string> FactorizableMethodNames() {
  std::vector<std::string> out;
  for (const std::string& name : ImplementedMethodNames()) {
    const std::unique_ptr<Recommender> model = MakeRecommender(name);
    if (model != nullptr && IsFactorizable(*model)) out.push_back(name);
  }
  return out;
}

bool SupportsUpdate(const std::string& name) {
  const std::unique_ptr<Recommender> model = MakeRecommender(name);
  return model != nullptr && model->SupportsUpdate();
}

std::vector<std::string> UpdatableMethodNames() {
  std::vector<std::string> out;
  for (const std::string& name : ImplementedMethodNames()) {
    const std::unique_ptr<Recommender> model = MakeRecommender(name);
    if (model != nullptr && model->SupportsUpdate()) out.push_back(name);
  }
  return out;
}

}  // namespace kgrec
