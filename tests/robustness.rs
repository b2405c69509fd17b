//! Robustness and failure-injection integration tests: the paths a
//! production deployment hits when things go wrong — crashes mid-run,
//! paranoid maps, frequency changes under a running workload, module
//! behaviour on dead machines.

use plugvolt::characterize::analytic_map;
use plugvolt::charmap::CharacterizationMap;
use plugvolt::prelude::*;
use plugvolt_cpu::prelude::*;
use plugvolt_des::time::SimDuration;
use plugvolt_kernel::machine::{KernelModule, Machine, MachineError, ModuleCtx};
use plugvolt_kernel::prelude::*;
use plugvolt_msr::prelude::*;

#[test]
fn workload_faults_are_counted_under_unsafe_rail() {
    let mut m = Machine::new(CpuModel::CometLake, 91);
    let mut cpupower = CpuPower::new(&m);
    cpupower.frequency_set_all(&mut m, FreqMhz(4_900)).unwrap();
    let dev = MsrDev::open(&m, CoreId(0)).unwrap();
    // Inside the unsafe band but above the crash line.
    let req = OcRequest::write_offset(-170, Plane::Core).encode();
    dev.write(&mut m, Msr::OC_MAILBOX, req).unwrap();
    m.advance(SimDuration::from_millis(2));
    let run = m
        .run_workload(CoreId(0), InstrClass::Imul, 1_000_000)
        .unwrap();
    assert!(run.faults > 0, "unsafe rail must corrupt the workload");
    assert_eq!(run.instructions, 1_000_000);
}

#[test]
fn workload_crash_surfaces_as_error_and_reset_recovers() {
    let mut m = Machine::new(CpuModel::CometLake, 91);
    let mut cpupower = CpuPower::new(&m);
    cpupower.frequency_set_all(&mut m, FreqMhz(4_900)).unwrap();
    let dev = MsrDev::open(&m, CoreId(0)).unwrap();
    let req = OcRequest::write_offset(-400, Plane::Core).encode();
    dev.write(&mut m, Msr::OC_MAILBOX, req).unwrap();
    m.advance(SimDuration::from_millis(2));
    let err = m
        .run_workload(CoreId(0), InstrClass::Imul, 1_000_000)
        .unwrap_err();
    assert!(matches!(
        err,
        MachineError::Package(plugvolt_cpu::package::PackageError::Crashed)
    ));
    let now = m.now();
    m.cpu_mut().reset(now);
    m.advance(SimDuration::from_millis(2));
    let run = m
        .run_workload(CoreId(0), InstrClass::Imul, 100_000)
        .unwrap();
    assert_eq!(run.faults, 0);
}

/// A module that bounces core 0 between two frequencies every tick —
/// stress for the workload runner's slicing.
struct FreqBouncer {
    fast: bool,
}

impl KernelModule for FreqBouncer {
    fn name(&self) -> &str {
        "freq-bouncer"
    }
    fn init(&mut self, _ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        Some(SimDuration::from_micros(500))
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>) -> Option<SimDuration> {
        self.fast = !self.fast;
        let f = if self.fast { 4_000 } else { 1_000 };
        let _ = ctx.wrmsr_local(
            CoreId(0),
            Msr::IA32_PERF_CTL,
            plugvolt_msr::perf_status::encode_perf_ctl(f),
        );
        Some(SimDuration::from_micros(500))
    }
}

#[test]
fn workload_survives_frequency_bouncing() {
    let mut m = Machine::new(CpuModel::CometLake, 91);
    m.load_module(Box::new(FreqBouncer { fast: false }))
        .unwrap();
    let run = m
        .run_workload(CoreId(0), InstrClass::AluAdd, 20_000_000)
        .unwrap();
    assert_eq!(run.instructions, 20_000_000);
    assert_eq!(run.faults, 0, "nominal voltage tracks both frequencies");
    // Wall time sits between the all-fast and all-slow extremes.
    let fast = SimDuration::from_cycles(5_000_000, 4_000);
    let slow = SimDuration::from_cycles(5_000_000, 1_000);
    assert!(
        run.wall > fast && run.wall < slow + SimDuration::from_millis(2),
        "wall={}",
        run.wall
    );
}

#[test]
fn empty_map_module_is_paranoid_but_stable() {
    // A module deployed with no characterization data treats every
    // undervolt as unsafe: maximum caution, no crashes, benign overvolt
    // untouched.
    let map = CharacterizationMap::new("blank", 0, -300);
    let mut m = Machine::new(CpuModel::CometLake, 92);
    let (module, stats) = PollingModule::new(map, PollConfig::default());
    m.load_module(Box::new(module)).unwrap();
    let dev = MsrDev::open(&m, CoreId(0)).unwrap();
    let req = OcRequest::write_offset(-30, Plane::Core).encode();
    dev.write(&mut m, Msr::OC_MAILBOX, req).unwrap();
    m.advance(SimDuration::from_millis(2));
    assert_eq!(m.cpu().core_offset_mv(), 0, "even −30 mV is rolled back");
    assert!(stats.borrow().detections > 0);
    let now = m.now();
    assert_eq!(m.cpu_mut().run_imul_loop(now, CoreId(0), 100_000), Ok(0));
}

#[test]
fn module_handles_crashed_machine_gracefully() {
    let map = analytic_map(&CpuModel::CometLake.spec());
    let mut m = Machine::new(CpuModel::CometLake, 93);
    let (module, stats) = PollingModule::new(map, PollConfig::default());
    m.load_module(Box::new(module)).unwrap();
    // Crash the package underneath the module (rail collapse).
    let now = m.now();
    let req = OcRequest::write_offset(-999, Plane::Core).encode();
    let _ = m.cpu_mut().wrmsr(now, CoreId(0), Msr::OC_MAILBOX, req);
    // Advance far past the restore window without the module's restore
    // landing (its wrmsr errors on the crashed package): advancing must
    // not panic, and timers must keep firing.
    m.advance(SimDuration::from_millis(10));
    let ticks_mid = stats.borrow().ticks;
    m.advance(SimDuration::from_millis(10));
    assert!(stats.borrow().ticks > ticks_mid, "timers stopped");
    // After reboot the module resumes protecting.
    let now = m.now();
    m.cpu_mut().reset(now);
    let mut cpupower = CpuPower::new(&m);
    cpupower.frequency_set_all(&mut m, FreqMhz(4_900)).unwrap();
    let attack = OcRequest::write_offset(-250, Plane::Core).encode();
    let dev = MsrDev::open(&m, CoreId(0)).unwrap();
    dev.write(&mut m, Msr::OC_MAILBOX, attack).unwrap();
    m.advance(SimDuration::from_millis(1));
    assert_eq!(m.cpu().core_offset_mv(), 0, "post-reboot restore works");
}

#[test]
fn polling_module_double_deploy_is_rejected_cleanly() {
    let map = analytic_map(&CpuModel::CometLake.spec());
    let mut m = Machine::new(CpuModel::CometLake, 95);
    let d1 = deploy(
        &mut m,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )
    .unwrap();
    let err = deploy(
        &mut m,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )
    .expect_err("second module must be rejected");
    assert!(matches!(err, MachineError::ModuleLoaded(_)));
    // The first deployment still works.
    let dev = MsrDev::open(&m, CoreId(0)).unwrap();
    let mut cpupower = CpuPower::new(&m);
    cpupower.frequency_set_all(&mut m, FreqMhz(4_900)).unwrap();
    let attack = OcRequest::write_offset(-250, Plane::Core).encode();
    dev.write(&mut m, Msr::OC_MAILBOX, attack).unwrap();
    m.advance(SimDuration::from_millis(1));
    assert_eq!(m.cpu().core_offset_mv(), 0);
    drop(d1);
}

#[test]
fn idle_victim_is_protected_on_wake() {
    // Attack lands while the victim core idles; the core wakes into a
    // system the module has already cleaned.
    let map = analytic_map(&CpuModel::CometLake.spec());
    let mut m = Machine::new(CpuModel::CometLake, 96);
    deploy(
        &mut m,
        &map,
        Deployment::PollingModule(PollConfig::default()),
    )
    .unwrap();
    let mut cpupower = CpuPower::new(&m);
    cpupower.frequency_set_all(&mut m, FreqMhz(4_900)).unwrap();
    let mut cpuidle = CpuIdle::new(&m);
    cpuidle.enter(&mut m, CoreId(0), CState::C6).unwrap();
    let dev = MsrDev::open(&m, CoreId(1)).unwrap();
    let attack = OcRequest::write_offset(-250, Plane::Core).encode();
    dev.write(&mut m, Msr::OC_MAILBOX, attack).unwrap();
    m.advance(SimDuration::from_millis(2));
    cpuidle.wake(&mut m, CoreId(0)).unwrap();
    m.advance(SimDuration::from_millis(1));
    let now = m.now();
    let faults = m
        .cpu_mut()
        .run_imul_loop(now, CoreId(0), 1_000_000)
        .unwrap();
    assert_eq!(faults, 0);
    assert_eq!(m.cpu().core_offset_mv(), 0);
}
