// Non-owning reference to a callable: two words (object pointer + trampoline)
// and no heap allocation, unlike std::function. C++20 has no
// std::function_ref, so this is the minimal subset the per-access storage
// paths need.
//
// Lifetime: a FunctionRef must not outlive the callable it was built from.
// Use it only as a by-value parameter that the callee invokes before
// returning -- a lambda passed at the call site lives until the end of the
// full expression, which covers the whole call.

#ifndef FLASHDB_COMMON_FUNCTION_REF_H_
#define FLASHDB_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace flashdb {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Binds to `f` itself (never a copy), so state `f` keeps across calls
  /// stays in the caller's object.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             !std::is_function_v<std::remove_reference_t<F>> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          auto& fn =
              *static_cast<std::add_pointer_t<std::remove_reference_t<F>>>(
                  obj);
          if constexpr (std::is_void_v<R>) {
            std::invoke(fn, std::forward<Args>(args)...);
          } else {
            return std::invoke(fn, std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace flashdb

#endif  // FLASHDB_COMMON_FUNCTION_REF_H_
