// FunctionRef<Sig>: a non-owning reference to a callable.
//
// It holds an object pointer and a call thunk, so passing a lambda never
// allocates, whatever it captures (std::function heap-allocates once the
// captures outgrow its small inline buffer). The referenced callable must
// outlive every call through the FunctionRef: use it as a by-value parameter
// type only, never as a member or a container element.

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
  /// The callables a FunctionRef may refer to (never another FunctionRef:
  /// copies copy the reference instead).
  template <typename F>
  static constexpr bool kRefersTo =
      !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
      std::is_invocable_r_v<R, F&, Args...>;

 public:
  /// Refers to `fn`, which must outlive the call this FunctionRef is
  /// passed to.
  template <typename F, std::enable_if_t<kRefersTo<F>, int> = 0>
  FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                             std::forward<Args>(args)...);
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
