#ifndef HTAPEX_COMMON_FUNCTION_REF_H_
#define HTAPEX_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace htapex {

template <typename Signature>
class FunctionRef;

/// A non-owning reference to a callable: two pointers, copied by value, and
/// a call never allocates. The referenced callable must outlive every call
/// through the reference, so take one only as a function parameter (or in a
/// struct that lives no longer than the callable), never as a stored
/// callback.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace htapex

#endif  // HTAPEX_COMMON_FUNCTION_REF_H_
