#pragma once

namespace extradeep::stats {

/// Natural log of the gamma function (Lanczos approximation, |err| < 1e-13
/// for x > 0).
double log_gamma(double x);

/// Regularized incomplete beta function I_x(a, b) for x in [0, 1], a, b > 0.
/// Evaluated with the Lentz continued-fraction method.
double incomplete_beta(double a, double b, double x);

/// CDF of Student's t distribution with `dof` degrees of freedom.
double student_t_cdf(double t, double dof);

/// Quantile (inverse CDF) of Student's t distribution. `p` must lie in
/// (0, 1). Used for the 95 % confidence intervals around PMNF model
/// predictions (paper Fig. 3). Throws InvalidArgumentError on bad input.
double student_t_quantile(double p, double dof);

/// Largest integer dof whose two-sided 95 % critical value is memoised.
inline constexpr int kCriticalMemoMaxDof = 128;

/// Two-sided critical value t* such that P(|T| <= t*) == `confidence`
/// (e.g. confidence = 0.95). Equals student_t_quantile(0.5 + confidence / 2,
/// dof) bit for bit. For confidence 0.95 and integer dof in
/// [1, kCriticalMemoMaxDof], the value is computed once per process and then
/// read from a lock-free table (every fitted model interval asks for one of
/// these); any other input is computed directly. Thread-safe.
double student_t_critical(double confidence, double dof);

}  // namespace extradeep::stats
