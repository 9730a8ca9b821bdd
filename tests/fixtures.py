"""Shared model sources used across the test suite.

``EMCO_WORKCELL_SOURCE`` is a faithful expansion of the paper's running
example (Codes 1-5): the ISA-95 base library, the EMCO driver/machine
specializations, and the instantiated workcell 02 topology with bound
ports and a performed method.
"""

ISA95_BASE_SOURCE = """
package ISA95 {
    doc /* ISA-95 base library: hierarchy plus Machine/Driver abstractions. */
    abstract part def Driver {
        part def DriverParameters;
        part def DriverVariables;
        part def DriverMethods;
    }
    abstract part def MachineDriver :> Driver;
    abstract part def GenericDriver :> Driver;
    abstract part def Machine {
        part def MachineData;
        part def MachineServices;
        ref part driver : Driver;
    }
    part def Topology {
        part def Enterprise {
            part def Site {
                part def Area {
                    part def ProductionLine {
                        attribute def ProductionLineVariables;
                        part def Workcell {
                            ref part machines : Machine [*];
                            part def WorkCellVariables;
                        }
                    }
                }
            }
        }
    }
}
"""

EMCO_LIBRARY_SOURCE = """
package EMCO {
    import ISA95::*;
    part def EMCODriver :> MachineDriver {
        part def EMCOParameters :> Driver::DriverParameters {
            attribute ip : String;
            attribute ip_port : Integer;
            attribute program_file_path : String;
        }
        part def EMCOVariables :> Driver::DriverVariables {
            port def EMCOVar {
                in attribute value : Real;
                attribute description : String;
                attribute identifier : String;
            }
            part def AxesPositions;
            part def SystemStatus;
        }
        part def EMCOMethods :> Driver::DriverMethods {
            port def EMCOMethod {
                attribute description : String;
                out action operation {
                    out ready : Boolean;
                }
            }
        }
    }
    part def EMCO :> Machine {
        part def EMCOMachineData :> Machine::MachineData {
            part def AxesPositions;
            part def SystemStatus;
        }
        part def EMCOServices :> Machine::MachineServices;
    }
}
"""

EMCO_INSTANCE_SOURCE = """
part ICETopology : ISA95::Topology {
    part UniVR : ISA95::Topology::Enterprise {
        part Verona : ISA95::Topology::Enterprise::Site {
            part ICELab : ISA95::Topology::Enterprise::Site::Area {
                part ICEProductionLine :
                        ISA95::Topology::Enterprise::Site::Area::ProductionLine {
                    part workCell02 :
                            ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell {
                        part emco : EMCO::EMCO {
                            ref part emcoDriverRef : EMCO::EMCODriver;
                            part emcoMachineData : EMCOMachineData {
                                part emcoAxesPosition : AxesPositions {
                                    attribute actualX : Real;
                                    port actual_X_EMCOVar_conj :
                                        ~EMCO::EMCODriver::EMCOVariables::EMCOVar;
                                    bind actual_X_EMCOVar_conj.value = actualX;
                                }
                                part emcoSystemStatus : SystemStatus;
                            }
                            part emcoServices : EMCOServices {
                                action isReady {
                                    out ready : Boolean;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

part emcoDriver : EMCO::EMCODriver {
    part emcoParameters : EMCOParameters {
        :>> ip = '10.197.12.11';
        :>> ip_port = 5557;
        :>> program_file_path = 'path/program/file';
    }
    part emcoVariables : EMCOVariables {
        part emcoSystemStatus : SystemStatus;
        part emcoAxesPositions : AxesPositions {
            attribute actualX : Real;
            port pp_actual_X_EMCOVar : EMCOVar;
            bind pp_actual_X_EMCOVar.value = actualX;
        }
    }
    part emcoMethods : EMCOMethods {
        action call_is_ready {
            out ready : Boolean;
            perform pp_is_ready_EMCOMthd.operation {
                out ready = call_is_ready.ready;
            }
        }
        port pp_is_ready_EMCOMthd : EMCOMethod;
    }
}
"""

EMCO_WORKCELL_SOURCE = (ISA95_BASE_SOURCE + EMCO_LIBRARY_SOURCE
                        + EMCO_INSTANCE_SOURCE)


def raw_post(port: int, content_length: str, body: bytes = b"",
             timeout: float = 5.0) -> tuple[int, bytes]:
    """POST /v1/generate over a bare socket with a hand-written
    ``Content-Length`` header; returns ``(status, response body)``.

    The socket timeout bounds the wait, so a server that blocks on the
    declared length fails the test instead of hanging it.
    """
    import socket

    request = (f"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Type: text/plain\r\n"
               f"Content-Length: {content_length}\r\n\r\n").encode() + body
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        received = b""
        while b"\r\n\r\n" not in received:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            rest += chunk
    return status, rest[:length]
