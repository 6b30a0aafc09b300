/**
 * @file
 * Host-speed calibration. Other tenants of a shared VM slow every job
 * by up to ~1.6x, for seconds to tens of minutes. On a 4-vCPU Xeon VM
 * that moved a run's median job time by 17-45% (IQR over median)
 * between runs. A fixed kernel that uses none of the repository's code
 * is therefore timed before and after each job, and the job's host
 * times are scaled by the kernel's reference time over the mean of the
 * two. A change to the program moves the job and not the kernel, so it
 * still shows in full.
 */
#pragma once

#include <vector>

namespace qmbench {

/**
 * The kernel's 10th-percentile time in ms on the host the benchmark was
 * defined on (4-vCPU Xeon VM). It sets the scale only: scaled times
 * read as that host's milliseconds.
 */
constexpr double kCalibrationRefMs = 3.5;

/** Run the calibration kernel once; returns its host time in ms. */
double calibrate();

/** Calibrates around a sequence of timed steps. */
class HostSpeed
{
  public:
    HostSpeed();

    /**
     * Calibrate after a step. Returns the factor that scales the step's
     * host times to the reference host: kCalibrationRefMs over the mean
     * of the kernel's times just before and just after the step.
     */
    double afterStep();

    /** Every kernel time measured so far, in ms. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace qmbench
