//! The floppy-driver case study (paper §4): a driver written in Vault
//! against the kernel interface of [`crate::kernel::KERNEL_IFACE`], plus a
//! family of seeded-bug mutants — one per protocol category — that the
//! checker must each reject with the matching diagnostic.

use crate::kernel::KERNEL_IFACE;
use crate::{CorpusProgram, Expectation};
use vault_syntax::Code;

/// Driver-internal hardware interface: the floppy controller and motor.
/// The motor has its own protocol (`off → spinning → off`), enforced the
/// same way the kernel protocols are.
pub const FLOPPY_HW_IFACE: &str = r#"
// ----- Floppy hardware (driver-internal interface) ----------------------
stateset MOTOR = [ off < spinning ];
type motor;
tracked(M) motor FlAcquireMotor() [new M@off, IRQL@PASSIVE_LEVEL];
void FlStartMotor(tracked(M) motor m) [M@off->spinning];
void FlStopMotor(tracked(M) motor m) [M@spinning->off];
void FlReleaseMotor(tracked(M) motor m) [-M@off];
void FlIssueCommand(tracked(M) motor m, int cmd) [M@spinning];
void FlSeek(tracked(M) motor m, int cylinder) [M@spinning];
void FlTransferSector(tracked(M) motor m, int cylinder, int sector, bool is_write)
  [M@spinning];
void FlFormatTrack(tracked(M) motor m, int cylinder) [M@spinning];
int FlReadControllerStatus();

// Media sensing: a keyed variant ties the sensor's key state to the
// sensed outcome, exactly like the failure-aware bind of section 2.3.
stateset MEDIA_STATE = [ unknown < loaded, unknown < empty ];
type media;
tracked(E) media FlAcquireMediaSensor() [new E@unknown, IRQL@PASSIVE_LEVEL];
variant media_status<key E> [ 'MediaLoaded {E@loaded} | 'MediaMissing {E@empty} ];
tracked media_status<E> FlSenseMedia(tracked(E) media m) [-E@unknown];
void FlReleaseMediaSensor(tracked(E) media m) [-E];

// ----- Driver data structures -------------------------------------------
struct CONTROLLER_STATE {
  int motor_running;
  int current_cylinder;
  int commands_issued;
}
struct DRIVE_CONFIG {
  int drive_select;
  int data_rate;
}

// ----- Request constants ---------------------------------------------------
int IRP_MJ_CREATE();
int IRP_MJ_CLOSE();
int IRP_MJ_READ();
int IRP_MJ_WRITE();
int IRP_MJ_DEVICE_CONTROL();
int IRP_MJ_PNP();
int IRP_MJ_POWER();
int IOCTL_GET_MEDIA_TYPES();
int IOCTL_SET_DATA_RATE();
int IOCTL_FORMAT_TRACKS();
int IOCTL_CHECK_MEDIA();
int SECTORS_PER_TRACK();
"#;

/// The floppy driver itself, in Vault.
pub const FLOPPY_DRIVER: &str = r#"
// ======================================================================
// Floppy driver (case study, paper section 4)
// ======================================================================

// ----- Fast-path requests: create and close -----------------------------
DSTATUS<I> FloppyCreate(DEVICE_OBJECT dev, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  IoSetIrpInformation(irp, 0);
  return IoCompleteRequest(irp, STATUS_SUCCESS());
}

DSTATUS<I> FloppyClose(DEVICE_OBJECT dev, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  IoSetIrpInformation(irp, 0);
  return IoCompleteRequest(irp, STATUS_SUCCESS());
}

// ----- Read/write: validate, record, pend --------------------------------
DSTATUS<I> FloppyReadWrite(DEVICE_OBJECT dev, tracked(I) IRP irp,
                           tracked(Q) irp_queue queue,
                           KSPIN_LOCK<L> ctrl_lock, L:CONTROLLER_STATE ctrl,
                           paged<DRIVE_CONFIG> config)
    [-I, Q, IRQL@PASSIVE_LEVEL] {
  IO_STACK_LOCATION sl = IoGetCurrentIrpStackLocation(irp);
  if (sl.Length == 0) {
    return IoCompleteRequest(irp, STATUS_INVALID_PARAMETER());
  }
  if (sl.Offset < 0) {
    return IoCompleteRequest(irp, STATUS_INVALID_PARAMETER());
  }
  // Touch the paged per-drive configuration while still at PASSIVE_LEVEL.
  int rate = config.data_rate;
  // Account for the request under the controller spin lock.
  KIRQL<entry_level> prev = KeAcquireSpinLock(ctrl_lock);
  ctrl.commands_issued++;
  KeReleaseSpinLock(ctrl_lock, prev);
  // Pend the request for the start-I/O path.
  DSTATUS<I> pending = IoMarkIrpPending(irp);
  FlEnqueueIrp(queue, irp);
  return pending;
}

// ----- The start-I/O path: drain the queue with the motor spinning --------
DSTATUS<J> FloppyExecuteRequest(DEVICE_OBJECT dev, tracked(J) IRP irp,
                                tracked(M) motor m)
    [-J, M@spinning, IRQL@PASSIVE_LEVEL] {
  IO_STACK_LOCATION sl = IoGetCurrentIrpStackLocation(irp);
  int cylinder = sl.Offset / SECTORS_PER_TRACK();
  int sector = sl.Offset % SECTORS_PER_TRACK();
  FlSeek(m, cylinder);
  bool is_write = sl.MajorFunction == IRP_MJ_WRITE();
  int remaining = sl.Length;
  while (remaining > 0) {
    // Floppy hardware is unreliable: retry each sector a few times.
    int attempts = 3;
    bool done = false;
    while (attempts > 0 && !done) {
      FlTransferSector(m, cylinder, sector, is_write);
      if (FlReadControllerStatus() == 0) {
        done = true;
      }
      attempts = attempts - 1;
    }
    remaining = remaining - 1;
    sector = sector + 1;
  }
  IoSetIrpInformation(irp, sl.Length);
  return IoCompleteRequest(irp, STATUS_SUCCESS());
}

void FloppyProcessQueue(DEVICE_OBJECT dev, tracked(Q) irp_queue queue,
                        tracked(M) motor m, bool more)
    [Q, M@spinning, IRQL@PASSIVE_LEVEL] {
  while (more) {
    switch (FlDequeueIrp(queue)) {
      case 'NoIrp:
        more = false;
      case 'GotIrp(pending):
        DSTATUS<J> done = FloppyExecuteRequest(dev, pending, m);
        more = true;
    }
  }
}

void FloppyStartDevice(DEVICE_OBJECT dev, tracked(Q) irp_queue queue, bool more)
    [Q, IRQL@PASSIVE_LEVEL] {
  tracked(M) motor m = FlAcquireMotor();
  FlStartMotor(m);
  FloppyProcessQueue(dev, queue, m, more);
  FlStopMotor(m);
  FlReleaseMotor(m);
}

// ----- Formatting: a motor lifetime scoped to one request ------------------
DSTATUS<I> FloppyFormat(DEVICE_OBJECT dev, tracked(I) IRP irp, tracked(M) motor m)
    [-I, M@spinning, IRQL@PASSIVE_LEVEL] {
  IO_STACK_LOCATION sl = IoGetCurrentIrpStackLocation(irp);
  int cylinder = sl.Offset;
  int count = sl.Length;
  while (count > 0) {
    FlFormatTrack(m, cylinder);
    cylinder = cylinder + 1;
    count = count - 1;
  }
  IoSetIrpInformation(irp, sl.Length);
  return IoCompleteRequest(irp, STATUS_SUCCESS());
}

DSTATUS<I> FloppyFormatRequest(DEVICE_OBJECT dev, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  tracked(M) motor m = FlAcquireMotor();
  FlStartMotor(m);
  DSTATUS<I> st = FloppyFormat(dev, irp, m);
  FlStopMotor(m);
  FlReleaseMotor(m);
  return st;
}

// ----- Media sensing: the keyed-variant status forces the check -------------
DSTATUS<I> FloppyCheckMedia(DEVICE_OBJECT dev, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  tracked(E) media sensor = FlAcquireMediaSensor();
  switch (FlSenseMedia(sensor)) {
    case 'MediaLoaded:
      FlReleaseMediaSensor(sensor);
      IoSetIrpInformation(irp, 1);
      return IoCompleteRequest(irp, STATUS_SUCCESS());
    case 'MediaMissing:
      FlReleaseMediaSensor(sensor);
      IoSetIrpInformation(irp, 0);
      return IoCompleteRequest(irp, STATUS_NO_MEDIA());
  }
}

// ----- Device control: paged configuration at PASSIVE_LEVEL ---------------
DSTATUS<I> FloppyDeviceControl(DEVICE_OBJECT dev, tracked(I) IRP irp,
                               paged<DRIVE_CONFIG> config)
    [-I, IRQL@PASSIVE_LEVEL] {
  IO_STACK_LOCATION sl = IoGetCurrentIrpStackLocation(irp);
  if (sl.IoControlCode == IOCTL_GET_MEDIA_TYPES()) {
    IoSetIrpInformation(irp, config.data_rate);
    return IoCompleteRequest(irp, STATUS_SUCCESS());
  }
  if (sl.IoControlCode == IOCTL_FORMAT_TRACKS()) {
    return FloppyFormatRequest(dev, irp);
  }
  if (sl.IoControlCode == IOCTL_CHECK_MEDIA()) {
    return FloppyCheckMedia(dev, irp);
  }
  if (sl.IoControlCode == IOCTL_SET_DATA_RATE()) {
    config.data_rate = sl.Length;
    IoSetIrpInformation(irp, 1);
    return IoCompleteRequest(irp, STATUS_SUCCESS());
  }
  return IoCompleteRequest(irp, STATUS_UNSUCCESSFUL());
}

// ----- PnP: the Fig. 7 idiom (pass down, regain, complete) -----------------
DSTATUS<I> FloppyPnp(DEVICE_OBJECT lower, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  KEVENT<I> IrpIsBack = KeInitializeEvent(irp);
  tracked COMPLETION_RESULT<I> RegainIrp(DEVICE_OBJECT d, tracked(I) IRP j)
      [-I, IRQL@(cl <= DISPATCH_LEVEL)] {
    KeSignalEvent(IrpIsBack);
    return 'MoreProcessingRequired;
  }
  IoCopyCurrentIrpStackLocationToNext(irp);
  IoSetCompletionRoutine(irp, RegainIrp);
  DSTATUS<I> lower_status = IoCallDriver(lower, irp);
  KeWaitForEvent(IrpIsBack);
  return IoCompleteRequest(irp, STATUS_SUCCESS());
}

// ----- Power: pass straight down --------------------------------------------
DSTATUS<I> FloppyPower(DEVICE_OBJECT lower, tracked(I) IRP irp)
    [-I, IRQL@PASSIVE_LEVEL] {
  IoCopyCurrentIrpStackLocationToNext(irp);
  return IoCallDriver(lower, irp);
}

// ----- Top-level dispatch -----------------------------------------------------
DSTATUS<I> FloppyDispatch(DEVICE_OBJECT dev, DEVICE_OBJECT lower,
                          tracked(I) IRP irp, tracked(Q) irp_queue queue,
                          KSPIN_LOCK<L> ctrl_lock, L:CONTROLLER_STATE ctrl,
                          paged<DRIVE_CONFIG> config)
    [-I, Q, IRQL@PASSIVE_LEVEL] {
  IO_STACK_LOCATION sl = IoGetCurrentIrpStackLocation(irp);
  if (sl.MajorFunction == IRP_MJ_CREATE()) {
    return FloppyCreate(dev, irp);
  }
  if (sl.MajorFunction == IRP_MJ_CLOSE()) {
    return FloppyClose(dev, irp);
  }
  if (sl.MajorFunction == IRP_MJ_READ() || sl.MajorFunction == IRP_MJ_WRITE()) {
    return FloppyReadWrite(dev, irp, queue, ctrl_lock, ctrl, config);
  }
  if (sl.MajorFunction == IRP_MJ_DEVICE_CONTROL()) {
    return FloppyDeviceControl(dev, irp, config);
  }
  if (sl.MajorFunction == IRP_MJ_POWER()) {
    return FloppyPower(lower, irp);
  }
  return FloppyPnp(lower, irp);
}

// ----- Initialization -----------------------------------------------------------
int DriverEntry(DRIVER_OBJECT driver, DEVICE_OBJECT physical, bool more)
    [IRQL@PASSIVE_LEVEL] {
  DEVICE_OBJECT dev = IoCreateDevice(driver, 7);
  DEVICE_OBJECT lower = IoAttachDeviceToDeviceStack(dev, physical);
  tracked(Q) irp_queue queue = FlAllocateQueue();
  tracked(C) CONTROLLER_STATE ctrl = new tracked CONTROLLER_STATE {
    motor_running=0; current_cylinder=0; commands_issued=0;
  };
  KSPIN_LOCK<C> ctrl_lock = KeInitializeSpinLock(ctrl);
  FloppyStartDevice(dev, queue, more);
  FlFreeQueue(queue);
  return 0;
}
"#;

/// The full, correct driver source (kernel interface + hardware + driver).
pub fn driver_source() -> String {
    format!("{KERNEL_IFACE}\n{FLOPPY_HW_IFACE}\n{FLOPPY_DRIVER}")
}

/// The same case study split into project-mode units: the kernel
/// interface, the driver-internal hardware interface (which needs the
/// kernel's `IRQL` protocol), and the driver itself. Unit order matches
/// the [`driver_source`] concatenation, so a flattened check and a
/// project check see the same declarations in the same order.
pub fn project_units() -> Vec<(&'static str, String)> {
    vec![
        ("kernel", KERNEL_IFACE.to_string()),
        (
            "floppy_hw",
            format!("import \"kernel\";\n{FLOPPY_HW_IFACE}"),
        ),
        (
            "driver",
            format!("import \"kernel\";\nimport \"floppy_hw\";\n{FLOPPY_DRIVER}"),
        ),
    ]
}

/// Multi-unit mutants: each seeded bug from [`programs`] applied to the
/// *driver unit* of the project split. Returns
/// `(id, units, expected code)` rows — the interface units are always
/// pristine, so every expected diagnostic must surface in the driver
/// unit's report.
pub fn project_mutants() -> Vec<crate::ProjectMutant> {
    MUTANTS
        .iter()
        .map(|m| {
            assert!(
                FLOPPY_DRIVER.contains(m.from),
                "mutant {} marker drifted out of the driver source",
                m.id
            );
            let mutated = FLOPPY_DRIVER.replacen(m.from, m.to, 1);
            let mut units = project_units();
            units[2] = (
                "driver",
                format!("import \"kernel\";\nimport \"floppy_hw\";\n{mutated}"),
            );
            (m.id, units, m.code)
        })
        .collect()
}

/// A seeded-bug mutant: one protocol violation applied to the driver.
struct Mutant {
    id: &'static str,
    description: &'static str,
    /// Exact text in [`FLOPPY_DRIVER`] to replace (must be present).
    from: &'static str,
    /// Replacement introducing the bug.
    to: &'static str,
    /// Expected diagnostic.
    code: Code,
}

const MUTANTS: &[Mutant] = &[
    Mutant {
        id: "floppy_mut_missing_release",
        description: "spin lock never released in FloppyReadWrite (lock leak)",
        from: "  KeReleaseSpinLock(ctrl_lock, prev);\n  // Pend the request",
        to: "  // BUG: release elided\n  // Pend the request",
        code: Code::KeyLeak,
    },
    Mutant {
        id: "floppy_mut_irp_dropped",
        description: "invalid-parameter path marks the IRP pending but never queues it",
        from: "  if (sl.Offset < 0) {\n    return IoCompleteRequest(irp, STATUS_INVALID_PARAMETER());\n  }",
        to: "  if (sl.Offset < 0) {\n    return IoMarkIrpPending(irp);\n  }",
        code: Code::KeyLeak,
    },
    Mutant {
        id: "floppy_mut_use_after_pass",
        description: "FloppyPower touches the IRP after IoCallDriver",
        from: "  IoCopyCurrentIrpStackLocationToNext(irp);\n  return IoCallDriver(lower, irp);\n}",
        to: "  IoCopyCurrentIrpStackLocationToNext(irp);\n  DSTATUS<I> st = IoCallDriver(lower, irp);\n  IoSetIrpInformation(irp, 1);\n  return st;\n}",
        code: Code::KeyNotHeld,
    },
    Mutant {
        id: "floppy_mut_no_wait",
        description: "FloppyPnp completes the IRP without waiting for the completion event",
        from: "  DSTATUS<I> lower_status = IoCallDriver(lower, irp);\n  KeWaitForEvent(IrpIsBack);",
        to: "  DSTATUS<I> lower_status = IoCallDriver(lower, irp);\n  // BUG: wait elided",
        code: Code::KeyNotHeld,
    },
    Mutant {
        id: "floppy_mut_paged_under_lock",
        description: "paged config touched at DISPATCH_LEVEL inside the spin lock",
        from: "  ctrl.commands_issued++;\n  KeReleaseSpinLock(ctrl_lock, prev);",
        to: "  ctrl.commands_issued++;\n  config.data_rate = 9;\n  KeReleaseSpinLock(ctrl_lock, prev);",
        code: Code::StateBound,
    },
    Mutant {
        id: "floppy_mut_double_complete",
        description: "FloppyDeviceControl completes the unsupported-ioctl IRP twice",
        from: "  return IoCompleteRequest(irp, STATUS_UNSUCCESSFUL());\n}",
        to: "  DSTATUS<I> first = IoCompleteRequest(irp, STATUS_UNSUCCESSFUL());\n  return IoCompleteRequest(irp, STATUS_UNSUCCESSFUL());\n}",
        code: Code::KeyNotHeld,
    },
    Mutant {
        id: "floppy_mut_motor_not_started",
        description: "queue processed with the motor still off",
        from: "  FlStartMotor(m);\n  FloppyProcessQueue(dev, queue, m, more);",
        to: "  // BUG: spin-up elided\n  FloppyProcessQueue(dev, queue, m, more);",
        code: Code::WrongKeyState,
    },
    Mutant {
        id: "floppy_mut_motor_leaked",
        description: "motor neither stopped nor released after processing",
        from: "  FlStopMotor(m);\n  FlReleaseMotor(m);\n}",
        to: "  // BUG: shutdown elided\n}",
        code: Code::KeyLeak,
    },
];

/// Driver + mutants as corpus programs (experiments E11/E12).
pub fn programs() -> Vec<CorpusProgram> {
    let mut v = vec![CorpusProgram {
        id: "floppy_driver",
        experiment: "E11",
        description: "the floppy-driver case study, protocol-clean",
        source: driver_source(),
        expect: Expectation::Accept,
    }];
    for m in MUTANTS {
        assert!(
            FLOPPY_DRIVER.contains(m.from),
            "mutant {} marker drifted out of the driver source",
            m.id
        );
        let mutated = FLOPPY_DRIVER.replacen(m.from, m.to, 1);
        v.push(CorpusProgram {
            id: m.id,
            experiment: "E12",
            description: m.description,
            source: format!("{KERNEL_IFACE}\n{FLOPPY_HW_IFACE}\n{mutated}"),
            expect: Expectation::reject(m.code),
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_source_is_substantial() {
        assert!(crate::count_loc(&driver_source()) > 200);
    }

    #[test]
    fn all_mutant_markers_present() {
        // `programs` panics on drift; this makes it a named test.
        assert_eq!(programs().len(), 1 + MUTANTS.len());
    }

    #[test]
    fn project_split_covers_the_whole_driver() {
        let units = project_units();
        assert_eq!(units.len(), 3);
        assert!(units[0].1.contains("IRQL"));
        assert!(units[1].1.starts_with("import \"kernel\";"));
        assert!(units[2].1.contains("FloppyDispatch"));
        assert_eq!(project_mutants().len(), MUTANTS.len());
        for (id, units, _) in project_mutants() {
            assert_eq!(units.len(), 3, "{id}");
            assert_ne!(units[2].1, project_units()[2].1, "{id} did not mutate");
        }
    }

    #[test]
    fn mutants_differ_from_driver() {
        for p in programs().iter().skip(1) {
            assert_ne!(p.source, driver_source(), "{} identical", p.id);
        }
    }
}
