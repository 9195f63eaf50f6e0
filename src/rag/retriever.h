#ifndef HTAPEX_RAG_RETRIEVER_H_
#define HTAPEX_RAG_RETRIEVER_H_

#include <vector>

#include "llm/prompt.h"
#include "vectordb/knowledge_base.h"

namespace htapex {

/// Retrieval result with the measured wall time (one of the paper's three
/// end-to-end latency components).
struct RetrievalResult {
  std::vector<KnowledgeItem> items;
  double search_ms = 0.0;
};

/// The RAG retriever: looks up the top-K most similar plan-pair embeddings
/// in the knowledge base and converts the hits into prompt-ready
/// KnowledgeItems.
class Retriever {
 public:
  explicit Retriever(const KnowledgeBase* kb) : kb_(kb) {}

  RetrievalResult Retrieve(const std::vector<double>& embedding, int k) const;

 private:
  const KnowledgeBase* kb_;
};

}  // namespace htapex

#endif  // HTAPEX_RAG_RETRIEVER_H_
