#include "rag/retriever.h"

#include "common/sim_clock.h"

namespace htapex {

RetrievalResult Retriever::Retrieve(const std::vector<double>& embedding,
                                    int k) const {
  RetrievalResult out;
  WallTimer timer;
  std::vector<const KbEntry*> hits = kb_->Retrieve(embedding, k);
  out.search_ms = timer.ElapsedMillis();
  out.items.reserve(hits.size());
  for (const KbEntry* e : hits) {
    KnowledgeItem item;
    item.sql = e->sql;
    item.tp_plan_json = e->tp_plan_json;
    item.ap_plan_json = e->ap_plan_json;
    item.faster = e->faster;
    item.expert_explanation = e->expert_explanation;
    out.items.push_back(std::move(item));
  }
  return out;
}

}  // namespace htapex
