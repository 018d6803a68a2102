// Factory for the incremental methods, mirroring core/registry.h. Only MV,
// ZC and D&S (categorical) and Mean and Median (numeric) have an
// incremental form; for any other name the factories return nullptr and
// the tools refuse to stream it.
#ifndef CROWDTRUTH_STREAMING_REGISTRY_H_
#define CROWDTRUTH_STREAMING_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "streaming/incremental.h"

namespace crowdtruth::streaming {

// Methods with an incremental categorical implementation, in the batch
// registry's order: {"MV", "ZC", "D&S"}.
std::vector<std::string> IncrementalCategoricalNames();
// Methods with an incremental numeric implementation: {"Mean", "Median"}.
std::vector<std::string> IncrementalNumericNames();

// Returns nullptr for names without an incremental implementation.
// `num_choices` must be >= 2.
std::unique_ptr<IncrementalCategoricalMethod> MakeIncrementalCategorical(
    const std::string& name, int num_choices,
    const StreamingOptions& options);
std::unique_ptr<IncrementalNumericMethod> MakeIncrementalNumeric(
    const std::string& name, const StreamingOptions& options);

// The same two factories and name lists for code written once over both
// bases: `Method` is IncrementalCategoricalMethod or
// IncrementalNumericMethod, and numeric methods ignore `num_choices`.
template <typename Method>
std::unique_ptr<Method> MakeIncremental(const std::string& name,
                                        int num_choices,
                                        const StreamingOptions& options);
template <typename Method>
std::vector<std::string> IncrementalNames();

template <>
inline std::unique_ptr<IncrementalCategoricalMethod> MakeIncremental(
    const std::string& name, int num_choices,
    const StreamingOptions& options) {
  return MakeIncrementalCategorical(name, num_choices, options);
}
template <>
inline std::unique_ptr<IncrementalNumericMethod> MakeIncremental(
    const std::string& name, int /*num_choices*/,
    const StreamingOptions& options) {
  return MakeIncrementalNumeric(name, options);
}
template <>
inline std::vector<std::string> IncrementalNames<
    IncrementalCategoricalMethod>() {
  return IncrementalCategoricalNames();
}
template <>
inline std::vector<std::string> IncrementalNames<IncrementalNumericMethod>() {
  return IncrementalNumericNames();
}

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_REGISTRY_H_
