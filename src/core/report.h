#ifndef HTAPEX_CORE_REPORT_H_
#define HTAPEX_CORE_REPORT_H_

#include <string>

#include "core/htap_explainer.h"

namespace htapex {

/// Renders an ExplainResult as a self-contained markdown report — what a
/// deployment would attach to a slow-query ticket: the query, the
/// generated explanation, both plans annotated with the latency model's
/// per-node attribution, the retrieved precedents, and the response-time
/// components.
std::string RenderExplainReport(const HtapExplainer& explainer,
                                const ExplainResult& result);

}  // namespace htapex

#endif  // HTAPEX_CORE_REPORT_H_
